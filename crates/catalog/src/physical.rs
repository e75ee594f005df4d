//! The physical layer: the index seam and plan execution.
//!
//! Two things live here, each the only place that knows its decision:
//!
//! * **The index seam.**  [`IndexSpec`] names one of the five index classes;
//!   the class table (`CLASSES`) is the single place that says what a class
//!   *is* — durable kind tag, operator-class name, key type, how to create
//!   it and how to reopen it — and `IndexAccess` is the one object-safe
//!   interface the executor drives every class through.  It is implemented
//!   once, generically, over [`SpIndex`]; `IndexKey` (three impls: `String`,
//!   `Point`, `Segment`) converts between the executor's dynamic
//!   [`Datum`]/[`Predicate`] and an index's typed key/query.  A new class is
//!   one `IndexSpec` variant plus one row in the table — the paper's
//!   "external methods plus a catalog row".
//! * **Execution.**  An `Executor` runs the planner's [`AccessPath`] tree —
//!   index scans, residual filters, row-id intersections and unions
//!   (deduplicated while streaming), ordered scans and `LIMIT` — as a
//!   streaming [`ExecCursor`] that keeps the very tree it ran
//!   ([`ExecCursor::path`]).  It reaches the heap only through
//!   `RowSource`, which the table layer implements — this module knows
//!   nothing of tables, logging or recovery.

use std::collections::HashSet;
use std::mem::discriminant;
use std::sync::Arc;

use spgist_core::{RowId, SpGistOps};
use spgist_indexes::geom::{Point, Rect, Segment};
use spgist_indexes::query::{PointQuery, SegmentQuery, StringQuery};
use spgist_indexes::{
    KdTreeIndex, KdTreeOps, PmrQuadtreeIndex, PmrQuadtreeOps, PointQuadtreeIndex, PointQuadtreeOps,
    SpGistIndex, SpIndex, SuffixOps, SuffixTreeIndex, TrieIndex, TrieOps,
};
use spgist_storage::{
    AccessHint, BufferPool, Codec, ConcurrencyStats, PageId, StorageError, StorageResult,
};

use crate::durable::{
    PersistedIndex, KIND_KDTREE, KIND_PMR, KIND_PQUADTREE, KIND_SUFFIX, KIND_TRIE,
};
use crate::planner::AccessPath;
use crate::query::Predicate;
use crate::value::{Datum, KeyType};

// ---------------------------------------------------------------------------
// The index seam
// ---------------------------------------------------------------------------

/// What kind of physical index to build on a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexSpec {
    /// Patricia trie (`SP_GiST_trie`, `VARCHAR`).
    Trie,
    /// Suffix tree (`SP_GiST_suffix`, `VARCHAR`).
    SuffixTree,
    /// kd-tree (`SP_GiST_kdtree`, `POINT`).
    KdTree,
    /// Point quadtree (`SP_GiST_pquadtree`, `POINT`).
    PointQuadtree,
    /// PMR quadtree over the given world rectangle (`SP_GiST_pmr`,
    /// `SEGMENT`).
    PmrQuadtree {
        /// The world rectangle the quadtree decomposes.
        world: Rect,
    },
}

/// Placeholder world rectangle of the classes that have none (what their
/// durable identity records in the `world` field).
const NO_WORLD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 0.0,
    max_y: 0.0,
};

/// A freshly created or reopened index behind the class-independent seam.
type Opened = StorageResult<Box<dyn IndexAccess>>;

/// One row of the class table: everything the catalog layer knows about an
/// index class beyond the generic [`SpIndex`] surface.
struct IndexClass {
    /// Stable on-disk kind tag (durable catalog and `CREATE INDEX` redo
    /// records).
    kind: u8,
    /// The operator class a physical index of this class is created with.
    operator_class: &'static str,
    /// The key type the class can serve.
    key_type: KeyType,
    /// The [`IndexSpec`] of this class over `world` (ignored by classes
    /// that decompose no fixed world).
    spec: fn(Rect) -> IndexSpec,
    /// Creates a fresh, empty index.
    create: fn(Arc<BufferPool>, Rect) -> Opened,
    /// Reopens an index from its durable identity; the configuration (and,
    /// for the PMR quadtree, the world rectangle) round-trips, so the
    /// reopened index behaves identically to the never-closed one.
    reopen: fn(Arc<BufferPool>, &PersistedIndex) -> Opened,
}

fn boxed<I: IndexAccess + 'static>(index: StorageResult<I>) -> Opened {
    index.map(|index| Box::new(index) as Box<dyn IndexAccess>)
}

/// Reopens the index of class `ops` a durable identity names.
fn reopened<O: SpGistOps>(pool: Arc<BufferPool>, ops: O, pi: &PersistedIndex) -> Opened
where
    SpGistIndex<O>: IndexAccess + 'static,
{
    boxed(SpGistIndex::open_with_ops(
        pool,
        ops,
        pi.meta_page,
        pi.pages.clone(),
    ))
}

/// The class table: the only per-class code in the catalog layer.
static CLASSES: [IndexClass; 5] = [
    IndexClass {
        kind: KIND_TRIE,
        operator_class: "SP_GiST_trie",
        key_type: KeyType::Varchar,
        spec: |_| IndexSpec::Trie,
        create: |pool, _| boxed(TrieIndex::create(pool)),
        reopen: |pool, pi| reopened(pool, TrieOps::with_config(pi.config), pi),
    },
    IndexClass {
        kind: KIND_SUFFIX,
        operator_class: "SP_GiST_suffix",
        key_type: KeyType::Varchar,
        spec: |_| IndexSpec::SuffixTree,
        create: |pool, _| boxed(SuffixTreeIndex::create(pool)),
        reopen: |pool, pi| reopened(pool, SuffixOps::with_config(pi.config), pi),
    },
    IndexClass {
        kind: KIND_KDTREE,
        operator_class: "SP_GiST_kdtree",
        key_type: KeyType::Point,
        spec: |_| IndexSpec::KdTree,
        create: |pool, _| boxed(KdTreeIndex::create(pool)),
        reopen: |pool, pi| reopened(pool, KdTreeOps::with_config(pi.config), pi),
    },
    IndexClass {
        kind: KIND_PQUADTREE,
        operator_class: "SP_GiST_pquadtree",
        key_type: KeyType::Point,
        spec: |_| IndexSpec::PointQuadtree,
        create: |pool, _| boxed(PointQuadtreeIndex::create(pool)),
        reopen: |pool, pi| reopened(pool, PointQuadtreeOps::with_config(pi.config), pi),
    },
    IndexClass {
        kind: KIND_PMR,
        operator_class: "SP_GiST_pmr",
        key_type: KeyType::Segment,
        spec: |world| IndexSpec::PmrQuadtree { world },
        create: |pool, world| boxed(PmrQuadtreeIndex::create(pool, world)),
        reopen: |pool, pi| reopened(pool, PmrQuadtreeOps::with_config(pi.world, pi.config), pi),
    },
];

impl IndexSpec {
    /// This spec's row of the class table.
    fn class(&self) -> &'static IndexClass {
        CLASSES
            .iter()
            .find(|class| discriminant(&(class.spec)(NO_WORLD)) == discriminant(self))
            .expect("every IndexSpec variant has a row in the class table")
    }

    /// The spec a durable kind tag names, over `world` where the class has
    /// one; `None` for a tag no class claims.
    fn from_kind(kind: u8, world: Rect) -> Option<Self> {
        let class = CLASSES.iter().find(|class| class.kind == kind)?;
        Some((class.spec)(world))
    }

    /// The world rectangle, for the class that decomposes a fixed one.
    fn world(&self) -> Option<Rect> {
        match self {
            IndexSpec::PmrQuadtree { world } => Some(*world),
            _ => None,
        }
    }

    /// The operator class this physical index is created with.
    pub fn operator_class(&self) -> &'static str {
        self.class().operator_class
    }

    /// The key type this index can serve.
    pub fn key_type(&self) -> KeyType {
        self.class().key_type
    }

    /// Stable byte encoding for WAL `CREATE INDEX` records: the durable
    /// catalog's kind tag, plus the world rectangle where one applies.
    pub(crate) fn encode_spec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.class().kind.encode(&mut out);
        if let Some(world) = self.world() {
            world.encode(&mut out);
        }
        out
    }

    pub(crate) fn decode_spec(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        let kind = u8::decode(&mut buf)?;
        let mut spec = IndexSpec::from_kind(kind, NO_WORLD).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "WAL CREATE INDEX record names unknown index kind {kind}"
            ))
        })?;
        if spec.world().is_some() {
            spec = (spec.class().spec)(Rect::decode(&mut buf)?);
        }
        if !buf.is_empty() {
            return Err(StorageError::Corrupt(
                "WAL CREATE INDEX record has trailing bytes".into(),
            ));
        }
        Ok(spec)
    }
}

/// How one key type crosses the seam: the executor's dynamic [`Datum`] and
/// [`Predicate`] on one side, an index's typed key and query on the other
/// (`Into<Datum>` is the way back: a key an index scan returns becomes the
/// row's datum).  Three impls serve all five classes.
trait IndexKey: Clone + Into<Datum> + 'static {
    /// The typed query the key's indexes answer.
    type Query;

    /// The key `datum` holds, moved out, if the datum is of this type.
    fn from_datum(datum: Datum) -> Option<Self>;

    /// The typed query inside a *leaf* `predicate`, if it is over this type.
    fn query_of(predicate: &Predicate) -> Option<&Self::Query>;
}

macro_rules! index_key {
    ($key:ty, $query:ty, $datum:path, $leaf:path) => {
        impl IndexKey for $key {
            type Query = $query;

            fn from_datum(datum: Datum) -> Option<Self> {
                match datum {
                    $datum(key) => Some(key),
                    _ => None,
                }
            }

            fn query_of(predicate: &Predicate) -> Option<&$query> {
                match predicate {
                    $leaf(query) => Some(query),
                    _ => None,
                }
            }
        }
    };
}

index_key!(String, StringQuery, Datum::Text, Predicate::Str);
index_key!(Point, PointQuery, Datum::Point, Predicate::Point);
index_key!(Segment, SegmentQuery, Datum::Segment, Predicate::Segment);

fn key_type_mismatch() -> StorageError {
    StorageError::Unsupported("datum type does not match the index key type".into())
}

/// Moves the typed `(key, row)` items an index consumes out of `items`,
/// rejecting any mismatched datum.
fn typed_items<K: IndexKey>(items: Vec<(Datum, RowId)>) -> StorageResult<Vec<(K, RowId)>> {
    items
        .into_iter()
        .map(|(datum, row)| K::from_datum(datum).map(|key| (key, row)))
        .collect::<Option<_>>()
        .ok_or_else(key_type_mismatch)
}

/// The one object-safe interface the table and executor drive every
/// physical index through, whatever its class: dynamic values in, row ids
/// out — each with its key datum when the class returns keys.  Implemented
/// once, for every [`SpIndex`] whose key type has an [`IndexKey`]
/// conversion.
pub(crate) trait IndexAccess: Send + Sync {
    /// Inserts a batch of `(datum, row)` items in one call (a single-row
    /// insert is a batch of one).  Atomicity of the batch with respect to
    /// other statements comes from the caller's DML lock, not from the
    /// index.
    fn insert_batch(&self, items: &[(Datum, RowId)]) -> StorageResult<()>;

    /// Builds the index from the full `(datum, row)` set in one
    /// `spgistbuild` pass (see [`SpIndex::bulk_build`]); the index must be
    /// freshly created and empty.  The set is taken by value, so its keys
    /// move into the build instead of being copied.  The tree keeps the
    /// height it built, so the next plan needs no walk.
    fn bulk_build(&self, items: Vec<(Datum, RowId)>) -> StorageResult<()>;

    /// Removes one `(datum, row)` item; returns whether it was there.
    fn delete(&self, datum: &Datum, row: RowId) -> StorageResult<bool>;

    /// Refuses a datum the index cannot store (see [`SpIndex::admits`]),
    /// so a statement can fail before it changes anything.
    fn admits(&self, datum: &Datum) -> StorageResult<()>;

    /// Streaming scan through this index for the leaf `predicate`, yielding
    /// matching row ids — or, when `ordered`, an ordered (distance) scan for
    /// a `@@` leaf, yielding row ids in non-decreasing distance from the
    /// anchor, driven by the incremental NN search.  Every row comes with
    /// its key datum iff [`IndexAccess::returns_keys`].  The planner only
    /// routes a predicate here when the index's operator class supports it
    /// (and only chooses an ordered scan for classes registering `@@`), so
    /// a type mismatch or a missing distance function is a planning bug.
    fn scan<'t>(&'t self, predicate: &Predicate, ordered: bool) -> StorageResult<RowStream<'t>>;

    /// Whether a scan's rows carry their key datum, so the executor need
    /// not visit the heap for it (see [`SpIndex::RETURNS_KEYS`]).
    fn returns_keys(&self) -> bool;

    /// The planner's `(pages, page_height)` view of the backing tree: an
    /// O(1) read the tree's writers keep current (see
    /// [`SpIndex::planner_stats`]).
    fn planner_stats(&self) -> StorageResult<(u64, u32)>;

    /// The latch and epoch counters of the backing tree.
    fn concurrency_stats(&self) -> ConcurrencyStats;

    /// Every page the backing tree owns, its meta page included.
    fn pages(&self) -> Vec<PageId>;

    /// The pages of the backing tree's pending list, and its merges since
    /// the index was opened (both 0 for a single-entry class).
    fn pending(&self) -> (u64, u64);

    /// The durable identity of this index, created from `spec` under
    /// `name`: kind, configuration, tree meta page, owned-page list, and
    /// the class-specific extra (the PMR world rectangle).
    fn persisted(&self, name: &str, spec: &IndexSpec) -> PersistedIndex;

    /// Releases every page of the backing tree to the pager's free list
    /// (`DROP INDEX`).
    fn destroy(self: Box<Self>) -> StorageResult<()>;
}

impl<I> IndexAccess for I
where
    I: SpIndex + Send + Sync,
    I::Key: IndexKey<Query = I::Query>,
{
    fn insert_batch(&self, items: &[(Datum, RowId)]) -> StorageResult<()> {
        SpIndex::insert_batch(self, typed_items(items.to_vec())?)
    }

    fn bulk_build(&self, items: Vec<(Datum, RowId)>) -> StorageResult<()> {
        SpIndex::bulk_build(self, typed_items(items)?).map(|_| ())
    }

    fn delete(&self, datum: &Datum, row: RowId) -> StorageResult<bool> {
        let key = I::Key::from_datum(datum.clone()).ok_or_else(key_type_mismatch)?;
        SpIndex::delete(self, &key, row)
    }

    fn admits(&self, datum: &Datum) -> StorageResult<()> {
        let key = I::Key::from_datum(datum.clone()).ok_or_else(key_type_mismatch)?;
        SpIndex::admits(self, &key)
    }

    fn scan<'t>(&'t self, predicate: &Predicate, ordered: bool) -> StorageResult<RowStream<'t>> {
        let query = I::Key::query_of(predicate).ok_or_else(|| {
            StorageError::Unsupported(
                "planner routed a predicate to an index of a different key type".into(),
            )
        })?;
        let cursor = if ordered {
            self.ordered_cursor(query)?.ok_or_else(|| {
                StorageError::Unsupported(
                    "planner chose an ordered scan on an index without distance support".into(),
                )
            })?
        } else {
            self.cursor(query)?
        };
        Ok(Box::new(cursor.map(|item| {
            item.map(|(key, row)| (row, I::RETURNS_KEYS.then(|| key.into())))
        })))
    }

    fn returns_keys(&self) -> bool {
        I::RETURNS_KEYS
    }

    fn planner_stats(&self) -> StorageResult<(u64, u32)> {
        SpIndex::planner_stats(self)
    }

    fn concurrency_stats(&self) -> ConcurrencyStats {
        self.backing().concurrency_stats()
    }

    fn pages(&self) -> Vec<PageId> {
        let mut pages = self.owned_pages();
        pages.push(self.meta_page());
        pages
    }

    fn pending(&self) -> (u64, u64) {
        let tree = self.backing();
        (tree.pending_pages() as u64, tree.pending_merges())
    }

    fn persisted(&self, name: &str, spec: &IndexSpec) -> PersistedIndex {
        let class = spec.class();
        PersistedIndex {
            name: name.to_string(),
            kind: class.kind,
            config: self.config(),
            world: spec.world().unwrap_or(NO_WORLD),
            meta_page: self.meta_page(),
            pages: self.owned_pages(),
        }
    }

    fn destroy(self: Box<Self>) -> StorageResult<()> {
        SpIndex::destroy(*self)
    }
}

/// A physical index registered on a table: its name, the spec it was
/// created from, and the index itself behind the class-independent seam.
pub(crate) struct NamedIndex {
    pub(crate) name: String,
    pub(crate) spec: IndexSpec,
    pub(crate) index: Box<dyn IndexAccess>,
}

impl NamedIndex {
    /// Creates a fresh, empty index of the class `spec` names.
    pub(crate) fn create(
        pool: Arc<BufferPool>,
        name: &str,
        spec: IndexSpec,
    ) -> StorageResult<Self> {
        let index = (spec.class().create)(pool, spec.world().unwrap_or(NO_WORLD))?;
        Ok(NamedIndex::new(name, spec, index))
    }

    /// Reopens an index from its durable identity — the inverse of
    /// [`NamedIndex::persisted`].
    pub(crate) fn reopen(pool: Arc<BufferPool>, pi: &PersistedIndex) -> StorageResult<Self> {
        let spec = IndexSpec::from_kind(pi.kind, pi.world).ok_or_else(|| {
            StorageError::Corrupt(format!("catalog names unknown index kind {}", pi.kind))
        })?;
        let index = (spec.class().reopen)(pool, pi)?;
        Ok(NamedIndex::new(&pi.name, spec, index))
    }

    fn new(name: &str, spec: IndexSpec, index: Box<dyn IndexAccess>) -> Self {
        NamedIndex {
            name: name.to_string(),
            spec,
            index,
        }
    }

    /// The durable identity of this index (see [`IndexAccess::persisted`]).
    pub(crate) fn persisted(&self) -> PersistedIndex {
        self.index.persisted(&self.name, &self.spec)
    }
}

// ---------------------------------------------------------------------------
// Execution cursors
// ---------------------------------------------------------------------------

/// The route of an [`ExecCursor`]'s plan: the [`AccessPath`] tree with its
/// predicates and costs left out.  A derived view, built from the plan by
/// one function; the plan itself is [`ExecCursor::path`].  It is kept for
/// the repo benchmark, which renders its routes from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanSource {
    /// Heap sequential scan with a per-tuple predicate re-check.
    Heap,
    /// Scan through the named physical index.
    Index {
        /// Name of the index being scanned.
        name: String,
    },
    /// Ordered (nearest-neighbour) scan through the named physical index.
    OrderedIndex {
        /// Name of the index being scanned.
        name: String,
    },
    /// Residual filter over the input source.
    Filter {
        /// The driving source.
        input: Box<ScanSource>,
    },
    /// Intersection of several row-id streams.
    Intersect {
        /// The participating sources.
        inputs: Vec<ScanSource>,
    },
    /// Deduplicated union of several row-id streams.
    Union {
        /// The participating sources.
        inputs: Vec<ScanSource>,
    },
    /// `LIMIT` applied over the input source.
    Limit {
        /// The limited source.
        input: Box<ScanSource>,
    },
}

impl ScanSource {
    /// True if any node of this source tree scans the named index.
    pub fn scans_index(&self, index: &str) -> bool {
        match self {
            ScanSource::Heap => false,
            ScanSource::Index { name } | ScanSource::OrderedIndex { name } => name == index,
            ScanSource::Filter { input } | ScanSource::Limit { input } => input.scans_index(index),
            ScanSource::Intersect { inputs } | ScanSource::Union { inputs } => {
                inputs.iter().any(|s| s.scans_index(index))
            }
        }
    }
}

impl From<&AccessPath> for ScanSource {
    fn from(path: &AccessPath) -> Self {
        let all = |inputs: &[AccessPath]| inputs.iter().map(ScanSource::from).collect();
        match path {
            AccessPath::SeqScan { .. } => ScanSource::Heap,
            AccessPath::IndexScan { index, .. } => ScanSource::Index {
                name: index.clone(),
            },
            AccessPath::OrderedScan { index, .. } => ScanSource::OrderedIndex {
                name: index.clone(),
            },
            AccessPath::Filter { input, .. } => ScanSource::Filter {
                input: Box::new(input.as_ref().into()),
            },
            AccessPath::Intersect { inputs, .. } => ScanSource::Intersect {
                inputs: all(inputs),
            },
            AccessPath::Union { inputs, .. } => ScanSource::Union {
                inputs: all(inputs),
            },
            AccessPath::Limit { input, .. } => ScanSource::Limit {
                input: Box::new(input.as_ref().into()),
            },
        }
    }
}

/// A streaming query result: `(row id, key datum)` pairs pulled lazily from
/// the plan the cursor runs.
pub struct ExecCursor<'t> {
    path: AccessPath,
    source: ScanSource,
    inner: Box<dyn Iterator<Item = StorageResult<(RowId, Datum)>> + 't>,
}

impl ExecCursor<'_> {
    /// The plan this cursor runs: the planner's tree, exactly as the
    /// executor executes it.
    pub fn path(&self) -> &AccessPath {
        &self.path
    }

    /// The route of [`ExecCursor::path`] (see [`ScanSource`]).
    pub fn source(&self) -> &ScanSource {
        &self.source
    }

    /// Drains the cursor into the row ids of every match.
    pub fn rows(self) -> StorageResult<Vec<RowId>> {
        self.map(|item| item.map(|(row, _)| row)).collect()
    }
}

impl Iterator for ExecCursor<'_> {
    type Item = StorageResult<(RowId, Datum)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl std::fmt::Debug for ExecCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCursor")
            .field("path", &self.path)
            .field("source", &self.source)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Execution (plan tree → streaming cursor)
// ---------------------------------------------------------------------------

/// Item type flowing between physical operators: a row id, plus the key
/// datum when an upstream operator already has it — read from the heap, or
/// returned by the index that found the row.
pub(crate) type RowStream<'t> =
    Box<dyn Iterator<Item = StorageResult<(RowId, Option<Datum>)>> + 't>;

/// What execution needs from whoever owns the heap: tuples by row id.  The
/// table layer implements it; this module never sees a table.
pub(crate) trait RowSource {
    /// Length of the row directory: every allocated row id, live or dead,
    /// is below it.
    fn row_count(&self) -> RowId;

    /// Whether `row` exists right now, by the row directory alone — the
    /// check [`RowSource::fetch`] makes before it reads, without the read.
    fn is_live(&self, row: RowId) -> bool;

    /// The key value of `row`, `None` if it does not exist (deleted or
    /// never inserted), fetched with the given buffer-pool hint.
    fn fetch(&self, row: RowId, hint: AccessHint) -> StorageResult<Option<Datum>>;
}

/// Runs plans over one table's heap rows and indexes.
#[derive(Clone, Copy)]
pub(crate) struct Executor<'t> {
    pub(crate) rows: &'t dyn RowSource,
    pub(crate) indexes: &'t [NamedIndex],
}

impl<'t> Executor<'t> {
    /// Executes `plan`, returning the streaming cursor over the matching
    /// `(row id, key)` pairs.  Every operator streams, so a `LIMIT` (or a
    /// caller that stops pulling) cuts the work short.  Results are
    /// identical across access paths: a row's key never changes between
    /// its insert and its delete, so the key an index scan returns *is* the
    /// heap datum, and only rows that arrive without one (suffix-tree
    /// scans) are resolved through the heap.
    pub(crate) fn cursor(self, plan: AccessPath) -> StorageResult<ExecCursor<'t>> {
        let inner = self
            .execute(&plan)?
            .map(move |item| {
                let (row, datum) = item?;
                Ok(self.resolve(row, datum)?.map(|datum| (row, datum)))
            })
            .filter_map(StorageResult::transpose);
        Ok(ExecCursor {
            source: ScanSource::from(&plan),
            path: plan,
            inner: Box::new(inner),
        })
    }

    /// The key of `row`: the datum an upstream operator already has, or one
    /// heap read.  `None` for a row deleted between the index probe and the
    /// heap fetch — skipped, not an error.
    fn resolve(self, row: RowId, datum: Option<Datum>) -> StorageResult<Option<Datum>> {
        match datum {
            Some(datum) => Ok(Some(datum)),
            None => self.rows.fetch(row, AccessHint::Normal),
        }
    }

    /// Walks every live heap row lazily: the one heap scan, behind both
    /// sequential-scan operators and `CREATE INDEX`'s build.  The row-id
    /// range is snapshotted at call time; each row is fetched under a short
    /// read latch, so rows deleted mid-scan are skipped and rows inserted
    /// mid-scan are unseen.
    pub(crate) fn heap_stream(self) -> impl Iterator<Item = StorageResult<(RowId, Datum)>> + 't {
        (0..self.rows.row_count()).filter_map(move |row| {
            // Every heap page is one-touch traffic.
            self.rows
                .fetch(row, AccessHint::Scan)
                .map(|datum| datum.map(|datum| (row, datum)))
                .transpose()
        })
    }

    /// Turns one plan node into its row stream.  Streams carry the
    /// key datum when the operator already has it, so downstream operators
    /// and the cursor read the heap at most once for one row — and not at
    /// all for a row a key-returning index found.
    pub(crate) fn execute(self, node: &AccessPath) -> StorageResult<RowStream<'t>> {
        Ok(match node {
            AccessPath::SeqScan {
                filter,
                order: Some(order),
                ..
            } => {
                // Ordered fallback: nothing can stream before the full
                // scan-and-sort (exactly what the cost model charges for).
                let mut rows: Vec<(f64, RowId, Datum)> = Vec::new();
                for item in self.heap_stream() {
                    let (row, datum) = item?;
                    if filter.matches(&datum) {
                        rows.push((order.distance(&datum), row, datum));
                    }
                }
                rows.sort_by(|a, b| a.0.total_cmp(&b.0));
                Box::new(
                    rows.into_iter()
                        .map(|(_, row, datum)| Ok((row, Some(datum)))),
                )
            }
            AccessPath::SeqScan {
                filter,
                order: None,
                ..
            } => {
                let filter = filter.clone();
                Box::new(self.heap_stream().filter_map(move |item| match item {
                    Err(e) => Some(Err(e)),
                    Ok((row, datum)) if filter.matches(&datum) => Some(Ok((row, Some(datum)))),
                    Ok(_) => None,
                }))
            }
            AccessPath::IndexScan { index, leaf, .. }
            | AccessPath::OrderedScan { index, leaf, .. } => {
                let ordered = matches!(node, AccessPath::OrderedScan { .. });
                let named = self
                    .indexes
                    .iter()
                    .find(|i| i.name == *index)
                    .ok_or_else(|| {
                        StorageError::Unsupported(format!("planner chose unknown index {index:?}"))
                    })?;
                // A row that brings its key skips the heap fetch whose
                // row-directory lookup used to drop rows deleted since the
                // index probe; that lookup happens here instead.
                let rows = self.rows;
                Box::new(
                    named
                        .index
                        .scan(leaf, ordered)?
                        .filter(move |item| match item {
                            Ok((row, Some(_))) => rows.is_live(*row),
                            _ => true,
                        }),
                )
            }
            AccessPath::Filter {
                input, residual, ..
            } => {
                let residual = residual.clone();
                let inner = self
                    .execute(input)?
                    .map(move |item| {
                        let (row, datum) = item?;
                        Ok(self
                            .resolve(row, datum)?
                            .filter(|datum| residual.iter().all(|p| p.matches(datum)))
                            .map(|datum| (row, Some(datum))))
                    })
                    .filter_map(StorageResult::transpose);
                Box::new(inner)
            }
            AccessPath::Intersect { inputs, .. } => {
                let (first, others) = inputs
                    .split_first()
                    .ok_or_else(|| StorageError::Unsupported("empty intersection plan".into()))?;
                // Materialize every non-driving row-id set (ids only — no
                // heap fetches) before opening the driver cursor.  Cursors
                // pin a reclamation epoch rather than a latch, so nothing
                // can deadlock here; draining and dropping each input
                // before the next opens keeps at most one epoch pinned at a
                // time, so writers' retired pages reclaim promptly even
                // under long intersections.
                let mut sets: Vec<HashSet<RowId>> = Vec::new();
                for node in others {
                    let mut set = HashSet::new();
                    for item in self.execute(node)? {
                        set.insert(item?.0);
                    }
                    sets.push(set);
                }
                Box::new(self.execute(first)?.filter(move |item| match item {
                    Ok((row, _)) => sets.iter().all(|set| set.contains(row)),
                    Err(_) => true,
                }))
            }
            AccessPath::Union { inputs, .. } => {
                // Each input's cursor opens only when the previous one is
                // exhausted and dropped: one epoch pinned at a time, so
                // writers' retired pages reclaim promptly.
                let mut pending = inputs.clone().into_iter();
                let mut current: Option<RowStream<'t>> = None;
                let chained = std::iter::from_fn(move || loop {
                    if let Some(stream) = current.as_mut() {
                        if let Some(item) = stream.next() {
                            return Some(item);
                        }
                        current = None; // epoch pin released before the next opens
                    }
                    match self.execute(&pending.next()?) {
                        Ok(stream) => current = Some(stream),
                        Err(e) => return Some(Err(e)),
                    }
                })
                .map(|item| item.map(|(row, datum)| (datum, row)));
                // Deduplicated by row id while streaming (one disjunct's
                // rows may satisfy another disjunct too).
                Box::new(
                    spgist_indexes::Cursor::deduplicated(chained)
                        .map(|item| item.map(|(datum, row)| (row, datum))),
                )
            }
            AccessPath::Limit { input, k } => Box::new(self.execute(input)?.take(*k)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostEstimate, TableStats};
    use crate::database::tests::word_table;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn seq_scan_answers_queries_without_any_index() {
        let db = word_table(500);
        let cursor = db.query("words", Predicate::str_prefix("ab")).unwrap();
        assert_eq!(cursor.source(), &ScanSource::Heap);
        let rows = cursor.rows().unwrap();
        assert!(!rows.is_empty());
        for &row in &rows {
            let Datum::Text(word) = db.table("words").unwrap().datum(row).unwrap() else {
                panic!("non-text datum in a varchar table");
            };
            assert!(word.starts_with("ab"));
        }
    }

    #[test]
    fn index_scan_and_seq_scan_return_identical_rows() {
        let mut db = word_table(4000);
        // Plan before the index exists: sequential scan.
        let seq_rows = {
            let cursor = db.query("words", Predicate::str_regex("a?a?a")).unwrap();
            assert_eq!(cursor.source(), &ScanSource::Heap);
            let mut rows = cursor.rows().unwrap();
            rows.sort_unstable();
            rows
        };
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let cursor = db.query("words", Predicate::str_regex("a?a?a")).unwrap();
        assert_eq!(
            cursor.source(),
            &ScanSource::Index {
                name: "words_trie".into()
            },
            "a selective regex over 4000 rows must route to the trie"
        );
        let mut idx_rows = cursor.rows().unwrap();
        idx_rows.sort_unstable();
        assert_eq!(idx_rows, seq_rows);
        assert!(!idx_rows.is_empty());
    }

    #[test]
    fn type_mismatches_are_rejected_not_panicked() {
        let mut db = word_table(10);
        let table = db.table_mut("words").unwrap();
        assert!(table.insert(Point::new(1.0, 2.0)).is_err());
        assert!(table.create_index("kd", IndexSpec::KdTree).is_err());
        assert!(db
            .plan("words", Predicate::point_equals(Point::new(1.0, 2.0)))
            .is_err());
        assert!(db.query("missing", Predicate::str_equals("x")).is_err());
        // Mixed-type predicate trees cannot run on any single-column table.
        let mixed = Predicate::str_prefix("a").and(Predicate::point_equals(Point::new(0.0, 0.0)));
        assert!(db.plan("words", &mixed).is_err());
        // `@@` leaves are only meaningful as the whole predicate or a single
        // top-level conjunct.
        assert!(db
            .plan(
                "words",
                Predicate::str_nearest("abc").or(Predicate::str_equals("x"))
            )
            .is_err());
        assert!(db
            .plan("words", Predicate::str_nearest("abc").negate())
            .is_err());
        assert!(db
            .plan(
                "words",
                Predicate::str_nearest("a").and(Predicate::str_nearest("b"))
            )
            .is_err());
        // As the whole predicate it plans fine (sorted heap fallback here).
        assert!(db
            .plan("words", Predicate::Str(StringQuery::Nearest("abc".into())))
            .is_ok());
    }

    #[test]
    fn cursor_streams_lazily() {
        let mut db = word_table(3000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let mut cursor = db.query("words", Predicate::str_prefix("a")).unwrap();
        // Pulling a single item must work without draining the cursor.
        let first = cursor.next().unwrap().unwrap();
        let Datum::Text(word) = first.1 else {
            panic!("non-text datum");
        };
        assert!(word.starts_with('a'));
    }

    /// The five specs, each with a few keys of its type, one predicate of
    /// its type, and a datum and a predicate of a *different* type.
    fn seam_cases() -> Vec<(IndexSpec, Vec<Datum>, Predicate, Datum, Predicate)> {
        let words = || vec![Datum::from("space"), "spade".into(), "star".into()];
        let points = || {
            vec![
                Datum::Point(Point::new(1.0, 2.0)),
                Datum::Point(Point::new(30.0, 40.0)),
            ]
        };
        let world = Rect::new(0.0, 0.0, 64.0, 32.0);
        let segment = Segment::new(Point::new(1.0, 1.0), Point::new(9.0, 5.0));
        let point = Datum::Point(Point::new(1.0, 2.0));
        let anywhere = Rect::new(0.0, 0.0, 100.0, 100.0);
        vec![
            (
                IndexSpec::Trie,
                words(),
                Predicate::str_prefix("sp"),
                point.clone(),
                Predicate::point_in_rect(anywhere),
            ),
            (
                IndexSpec::SuffixTree,
                words(),
                Predicate::str_substring("pa"),
                point,
                Predicate::segment_in_rect(anywhere),
            ),
            (
                IndexSpec::KdTree,
                points(),
                Predicate::point_in_rect(anywhere),
                "word".into(),
                Predicate::str_equals("word"),
            ),
            (
                IndexSpec::PointQuadtree,
                points(),
                Predicate::point_in_rect(anywhere),
                Datum::Segment(segment),
                Predicate::segment_in_rect(anywhere),
            ),
            (
                IndexSpec::PmrQuadtree { world },
                vec![Datum::Segment(segment)],
                Predicate::segment_in_rect(anywhere),
                "word".into(),
                Predicate::point_in_rect(anywhere),
            ),
        ]
    }

    fn unsupported<T>(result: StorageResult<T>) -> String {
        match result {
            Err(StorageError::Unsupported(msg)) => msg,
            Err(other) => panic!("expected Unsupported, got {other}"),
            Ok(_) => panic!("expected Unsupported, got Ok"),
        }
    }

    #[test]
    fn every_index_class_rejects_foreign_values_and_round_trips_its_identity() {
        const WRONG_DATUM: &str = "datum type does not match the index key type";
        const WRONG_PREDICATE: &str =
            "planner routed a predicate to an index of a different key type";
        for (spec, keys, predicate, foreign_datum, foreign_predicate) in seam_cases() {
            let pool = BufferPool::in_memory();
            let named = NamedIndex::create(Arc::clone(&pool), "ix", spec).unwrap();
            let ix = &named.index;

            // A datum of another key type is refused on every write path,
            // before anything lands.
            let foreign = [(foreign_datum.clone(), 7)];
            assert_eq!(unsupported(ix.insert_batch(&foreign)), WRONG_DATUM);
            assert_eq!(unsupported(ix.bulk_build(foreign.to_vec())), WRONG_DATUM);
            assert_eq!(unsupported(ix.delete(&foreign_datum, 7)), WRONG_DATUM);
            // So is a batch with one foreign datum among good ones.
            let mut mixed: Vec<(Datum, RowId)> = keys.iter().cloned().zip(0..).collect();
            mixed.push((foreign_datum, 99));
            assert_eq!(unsupported(ix.insert_batch(&mixed)), WRONG_DATUM);
            assert_eq!(
                ix.scan(&predicate, false).unwrap().count(),
                0,
                "{spec:?}: nothing landed"
            );

            // A predicate of another key type — or a composite, which has
            // no single typed query — is refused on both scan paths.
            let composite = predicate.clone().and(predicate.clone());
            for bad in [&foreign_predicate, &composite] {
                assert_eq!(
                    unsupported(ix.scan(bad, false).map(|_| ())),
                    WRONG_PREDICATE
                );
                assert_eq!(unsupported(ix.scan(bad, true).map(|_| ())), WRONG_PREDICATE);
            }

            // Matching values work: every key is found again, and comes
            // back with its row from every class but the suffix tree.
            assert_eq!(ix.returns_keys(), spec != IndexSpec::SuffixTree);
            let items: Vec<(Datum, RowId)> = keys.iter().cloned().zip(0..).collect();
            ix.insert_batch(&items).unwrap();
            let scan = |ix: &dyn IndexAccess| {
                let mut rows: Vec<(RowId, Option<Datum>)> = ix
                    .scan(&predicate, false)
                    .unwrap()
                    .collect::<StorageResult<_>>()
                    .unwrap();
                rows.sort_by_key(|(row, _)| *row);
                rows
            };
            let rows = scan(ix.as_ref());
            let expect: Vec<(RowId, Option<Datum>)> = items
                .iter()
                .filter(|(datum, _)| predicate.matches(datum))
                .map(|(datum, row)| (*row, ix.returns_keys().then(|| datum.clone())))
                .collect();
            assert!(!expect.is_empty());
            assert_eq!(rows, expect, "{spec:?}");

            // persisted() → reopen() → persisted() is the identity: kind,
            // configuration and PMR world round-trip, and the reopened index
            // answers the same.
            let pi = named.persisted();
            assert_eq!(pi.kind, spec.class().kind);
            assert_eq!(pi.world, spec.world().unwrap_or(NO_WORLD));
            let reopened = NamedIndex::reopen(Arc::clone(&pool), &pi).unwrap();
            assert_eq!(reopened.spec, spec);
            assert_eq!(reopened.persisted(), pi, "{spec:?}");
            assert_eq!(scan(reopened.index.as_ref()), rows);

            // The WAL spec encoding round-trips too.
            assert_eq!(IndexSpec::decode_spec(&spec.encode_spec()).unwrap(), spec);
        }
        // Ordered scans: a class without distance functions says so.
        let suffix = NamedIndex::create(BufferPool::in_memory(), "s", IndexSpec::SuffixTree);
        assert_eq!(
            unsupported(
                suffix
                    .unwrap()
                    .index
                    .scan(&Predicate::str_nearest("abc"), true)
                    .map(|_| ())
            ),
            "planner chose an ordered scan on an index without distance support"
        );
        // Unknown kind tags are corruption, in the catalog and in the log.
        assert!(IndexSpec::from_kind(200, NO_WORLD).is_none());
        assert!(matches!(
            IndexSpec::decode_spec(&[200]),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            IndexSpec::decode_spec(&[KIND_TRIE, 0]),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// A [`RowSource`] double: a row directory whose heap reads are counted.
    struct CountingRows {
        slots: Mutex<Vec<Option<Datum>>>,
        fetches: AtomicUsize,
    }

    impl CountingRows {
        fn fetches(&self) -> usize {
            self.fetches.load(Ordering::Relaxed)
        }
    }

    impl RowSource for CountingRows {
        fn row_count(&self) -> RowId {
            self.slots.lock().len() as RowId
        }

        fn is_live(&self, row: RowId) -> bool {
            self.slots.lock()[row as usize].is_some()
        }

        fn fetch(&self, row: RowId, _hint: AccessHint) -> StorageResult<Option<Datum>> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            Ok(self.slots.lock()[row as usize].clone())
        }
    }

    const WORDS: [&str; 10] = [
        "space", "spade", "spare", "star", "stare", "bare", "care", "scare", "blue", "top",
    ];

    /// The words behind a counting row source, indexed by a trie (returns
    /// keys) and a suffix tree (does not).
    fn counted_words() -> (CountingRows, [NamedIndex; 2]) {
        let items: Vec<(Datum, RowId)> = WORDS.iter().map(|w| Datum::from(*w)).zip(0..).collect();
        let pool = BufferPool::in_memory();
        let indexes =
            [("trie", IndexSpec::Trie), ("suffix", IndexSpec::SuffixTree)].map(|(name, spec)| {
                let named = NamedIndex::create(Arc::clone(&pool), name, spec).unwrap();
                named.index.insert_batch(&items).unwrap();
                named
            });
        let rows = CountingRows {
            slots: Mutex::new(items.into_iter().map(|(d, _)| Some(d)).collect()),
            fetches: Default::default(),
        };
        (rows, indexes)
    }

    /// A cost nothing here reads.
    fn no_cost() -> CostEstimate {
        CostEstimate::seq_scan(&TableStats {
            rows: 0,
            heap_pages: 0,
            distinct_values: 0,
        })
    }

    fn scan_node(index: &str, leaf: Predicate, ordered: bool) -> AccessPath {
        let (index, operator_class, cost) = (index.into(), String::new(), no_cost());
        if ordered {
            AccessPath::OrderedScan {
                index,
                operator_class,
                leaf,
                cost,
            }
        } else {
            AccessPath::IndexScan {
                index,
                operator_class,
                leaf,
                cost,
            }
        }
    }

    fn filter_node(input: AccessPath, residual: Predicate) -> AccessPath {
        AccessPath::Filter {
            input: Box::new(input),
            residual: vec![residual],
            cost: no_cost(),
        }
    }

    #[test]
    fn key_returning_scans_never_fetch_and_suffix_scans_fetch_once_per_reported_row() {
        let (rows, indexes) = counted_words();
        let exec = Executor {
            rows: &rows,
            indexes: &indexes,
        };
        let run = |plan: &AccessPath| {
            let before = rows.fetches();
            let out: Vec<(RowId, Datum)> = exec
                .cursor(plan.clone())
                .unwrap()
                .collect::<StorageResult<_>>()
                .unwrap();
            for (row, datum) in &out {
                assert_eq!(rows.slots.lock()[*row as usize].as_ref(), Some(datum));
            }
            (out.len(), rows.fetches() - before)
        };

        let s_words = WORDS.iter().filter(|w| w.starts_with('s')).count();
        let sare_words = WORDS
            .iter()
            .filter(|w| w.starts_with('s') && w.contains("are"))
            .count();
        for (plan, reported) in [
            (
                scan_node("trie", Predicate::str_prefix("s"), false),
                s_words,
            ),
            (
                scan_node("trie", Predicate::str_nearest("space"), true),
                WORDS.len(),
            ),
            (
                filter_node(
                    scan_node("trie", Predicate::str_prefix("s"), false),
                    Predicate::str_substring("are"),
                ),
                sare_words,
            ),
        ] {
            assert_eq!(run(&plan), (reported, 0), "{plan:?}");
        }

        // The suffix tree hands back row ids only: one heap read for every
        // row its scan reports — including those a residual then rejects —
        // and none on top of that when the cursor resolves the survivors.
        let are_words = WORDS.iter().filter(|w| w.contains("are")).count();
        assert!(sare_words < are_words);
        for (plan, reported) in [
            (
                scan_node("suffix", Predicate::str_substring("are"), false),
                are_words,
            ),
            (
                filter_node(
                    scan_node("suffix", Predicate::str_substring("are"), false),
                    Predicate::str_prefix("s"),
                ),
                sare_words,
            ),
        ] {
            assert_eq!(run(&plan), (reported, are_words), "{plan:?}");
        }
    }

    #[test]
    fn a_row_deleted_after_its_cursor_opened_is_skipped_with_or_without_a_heap_fetch() {
        let victim = WORDS.iter().position(|w| *w == "spare").unwrap() as RowId;
        for plan in [
            scan_node("trie", Predicate::str_prefix("s"), false),
            scan_node("trie", Predicate::str_nearest("spare"), true),
            scan_node("suffix", Predicate::str_substring("are"), false),
            AccessPath::SeqScan {
                filter: Predicate::str_prefix("s"),
                order: None,
                cost: no_cost(),
            },
            filter_node(
                scan_node("trie", Predicate::str_prefix("s"), false),
                Predicate::str_substring("are"),
            ),
            // The suffix set is drained when the cursor opens, before the
            // row dies: only the driving trie scan can still drop it.
            AccessPath::Intersect {
                inputs: vec![
                    scan_node("trie", Predicate::str_prefix("s"), false),
                    scan_node("suffix", Predicate::str_substring("are"), false),
                ],
                cost: no_cost(),
            },
            AccessPath::Union {
                inputs: vec![
                    scan_node("trie", Predicate::str_equals("spare"), false),
                    scan_node("trie", Predicate::str_prefix("st"), false),
                ],
                cost: no_cost(),
            },
        ] {
            let (rows, indexes) = counted_words();
            let exec = Executor {
                rows: &rows,
                indexes: &indexes,
            };
            let all = exec.cursor(plan.clone()).unwrap().rows().unwrap();
            assert!(all.contains(&victim), "{plan:?}");

            // The row dies between the cursor opening and the first pull;
            // its index entries are still there (the delete has not reached
            // the indexes yet), only the row directory says so.
            let cursor = exec.cursor(plan.clone()).unwrap();
            rows.slots.lock()[victim as usize] = None;
            let seen = cursor.rows().unwrap();
            assert!(!seen.contains(&victim), "{plan:?}");
            assert_eq!(seen.len(), all.len() - 1, "{plan:?}");
        }
    }
}
