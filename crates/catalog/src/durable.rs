//! The durable catalog: the on-disk record that makes a whole [`Database`]
//! reopenable.
//!
//! PostgreSQL's system catalogs are ordinary relations: an SP-GiST index
//! survives a restart because `pg_class` / `pg_index` name its relfilenode
//! and the access method knows how to pick the tree up from its meta page.
//! This module is that idea scaled to the workspace: a **catalog meta-table**
//! serialized with the workspace [`Codec`] and stored in ordinary pages
//! rooted at a well-known page (logical page 0 of the database file,
//! `CATALOG_ROOT`).  It records, for every table: the key type, the heap's
//! page directory and record count, the row directory (row id → heap record),
//! and every index's durable identity (class, configuration, tree meta page,
//! owned-page list) — everything `Database::open` needs to reconstruct the
//! executor state with **zero rebuild scans**.
//!
//! # Format v4: a root page plus per-table chunked segments
//!
//! Earlier formats stored the whole catalog as one blob chained across
//! pages, so every checkpoint rewrote O(rows) bytes no matter how little
//! changed.  v3 split the catalog into independently rewritable pieces
//! (v4 keeps the pieces and writes their lengths as varints),
//! each a self-describing [`CatalogChunk`] stored in its own **segment** (a
//! chain of pages, one record per page: `[next: PageId][fragment]`):
//!
//! ```text
//! page 0 ──► Root { checkpoint_lsn, [(table name, meta page)] }
//!               │
//!               ├─► TableMeta { counters, [row-chunk page], [heap-chunk page], indexes }
//!               │       ├─► Rows  [Option<RecordId>; ≤ ROWS_PER_CHUNK]     (chunk 0)
//!               │       ├─► Rows  ...                                      (chunk 1)
//!               │       └─► Heap  [PageId; ≤ HEAP_IDS_PER_CHUNK]
//!               └─► TableMeta ...
//! ```
//!
//! A checkpoint rewrites only the root, the metadata of tables mutated since
//! the previous checkpoint, and the row/heap chunks that actually changed —
//! an untouched table costs zero page writes.  Every chunk carries the
//! magic/version/tag header, so a v2 catalog (or any torn or foreign page)
//! fails [`decode_chunk`] loudly instead of being misread.
//!
//! Durability scope: DDL writes the catalog through before returning, and
//! `Database::close` / `Database::checkpoint` persist DML state (row
//! directories, heap directories, index page lists).  Crash-atomicity comes
//! from the pre-image journal in `spgist_storage::journal`; a torn file
//! fails `read_catalog` with [`StorageError::Corrupt`] rather than
//! returning wrong rows.
//!
//! [`Database`]: crate::Database

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use spgist_core::SpGistConfig;
use spgist_indexes::geom::Rect;
use spgist_storage::codec::take_header;
use spgist_storage::{
    BufferPool, Codec, Page, PageId, RecordId, StorageError, StorageResult, MAX_RECORD_SIZE,
};

/// The well-known root of the catalog: the first logical page of a database
/// file, allocated by `Database::create` before anything else.
pub(crate) const CATALOG_ROOT: PageId = 0;

/// Magic marker leading every catalog chunk (`"SPGC"`).
pub const CATALOG_MAGIC: u32 = 0x5350_4743;

/// Catalog format version.  Bumping it breaks open compatibility on purpose
/// (the meta-v1 policy: no migrations, old files fail with `Corrupt`).
/// v2 added `checkpoint_lsn` for WAL recovery; v3 split the catalog into a
/// root page plus per-table chunked segments for incremental checkpoints;
/// v4 writes every string and vector length as a varint.  Tree nodes, tree
/// meta records and heap records carry no version byte of their own, so
/// this one guards them too: v4 is also the node format with varint counts
/// and row ids, suffix-tree leaves holding rests, and the persisted
/// page-height hint.  v5 drops the suffix tree's word count from an index's
/// durable identity: a tree meta record counts values, not entries.
pub const CATALOG_VERSION: u8 = 5;

/// Chain terminator for segment continuation pointers.
const CHAIN_END: PageId = PageId::MAX;

/// Payload bytes per segment page: one record per page, minus the 4-byte
/// continuation pointer, with slack for the slot directory.
const SEG_CHUNK: usize = MAX_RECORD_SIZE - 64;

/// Row-directory entries per [`CatalogChunk::Rows`] chunk.  ~7 encoded
/// bytes per entry keeps one chunk within a single page, so dirtying one
/// row costs one catalog page write.
pub const ROWS_PER_CHUNK: u64 = 1000;

/// Heap-directory page ids per [`CatalogChunk::Heap`] chunk.
pub const HEAP_IDS_PER_CHUNK: usize = 1500;

/// Chunk tag: the catalog root ([`CatalogChunk::Root`]).
const TAG_ROOT: u8 = 1;
/// Chunk tag: one table's metadata ([`CatalogChunk::TableMeta`]).
const TAG_TABLE_META: u8 = 2;
/// Chunk tag: a run of row-directory entries ([`CatalogChunk::Rows`]).
const TAG_ROWS: u8 = 3;
/// Chunk tag: a run of heap-directory page ids ([`CatalogChunk::Heap`]).
const TAG_HEAP: u8 = 4;

/// Index kind tags persisted in the catalog (stable on-disk values).
pub(crate) const KIND_TRIE: u8 = 0;
pub(crate) const KIND_SUFFIX: u8 = 1;
pub(crate) const KIND_KDTREE: u8 = 2;
pub(crate) const KIND_PQUADTREE: u8 = 3;
pub(crate) const KIND_PMR: u8 = 4;

/// Durable identity of one physical index.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedIndex {
    /// Index name (unique per table).
    pub name: String,
    /// Index kind tag (`KIND_*`).
    pub kind: u8,
    /// The interface parameters the tree was created with (config
    /// round-trip).
    pub config: SpGistConfig,
    /// World rectangle (meaningful for the PMR quadtree; zeroed otherwise).
    pub world: Rect,
    /// The backing tree's meta page.
    pub meta_page: PageId,
    /// Pages owned by the backing tree, in allocation order.
    pub pages: Vec<PageId>,
}

impl Codec for PersistedIndex {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.kind.encode(out);
        self.config.encode(out);
        self.world.encode(out);
        self.meta_page.encode(out);
        self.pages.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        Ok(PersistedIndex {
            name: String::decode(buf)?,
            kind: u8::decode(buf)?,
            config: SpGistConfig::decode(buf)?,
            world: Rect::decode(buf)?,
            meta_page: PageId::decode(buf)?,
            pages: Vec::decode(buf)?,
        })
    }
}

/// Body of a [`CatalogChunk::TableMeta`] chunk: one table's counters, its
/// chunk directory (the first page of every row/heap segment), and every
/// index's durable identity.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMetaChunk {
    /// Table name (must match the name the root lists for this segment).
    pub name: String,
    /// Key type tag (0 varchar, 1 point, 2 segment).
    pub key_type: u8,
    /// Live records in the heap.
    pub heap_records: u64,
    /// Live rows (row directory entries that are `Some`).
    pub live_rows: u64,
    /// Distinct-values statistic at checkpoint time (a seed, not truth).
    pub distinct: u64,
    /// Total row-directory length; the chunk list must cover exactly this
    /// many entries ([`ROWS_PER_CHUNK`] per chunk, last chunk partial).
    pub rows_len: u64,
    /// First page of each row-directory chunk segment, in chunk order.
    pub row_chunks: Vec<PageId>,
    /// Total heap-directory length (pages owned by the heap file).
    pub heap_len: u64,
    /// First page of each heap-directory chunk segment, in chunk order.
    pub heap_chunks: Vec<PageId>,
    /// Every physical index on the table.
    pub indexes: Vec<PersistedIndex>,
}

impl Codec for TableMetaChunk {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.key_type.encode(out);
        self.heap_records.encode(out);
        self.live_rows.encode(out);
        self.distinct.encode(out);
        self.rows_len.encode(out);
        self.row_chunks.encode(out);
        self.heap_len.encode(out);
        self.heap_chunks.encode(out);
        self.indexes.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        Ok(TableMetaChunk {
            name: String::decode(buf)?,
            key_type: u8::decode(buf)?,
            heap_records: u64::decode(buf)?,
            live_rows: u64::decode(buf)?,
            distinct: u64::decode(buf)?,
            rows_len: u64::decode(buf)?,
            row_chunks: Vec::decode(buf)?,
            heap_len: u64::decode(buf)?,
            heap_chunks: Vec::decode(buf)?,
            indexes: Vec::decode(buf)?,
        })
    }
}

/// One self-describing piece of the chunked catalog.  Every chunk is stored
/// in its own page segment and carries the magic/version/tag header, so a
/// reader can never mistake one chunk kind (or catalog version) for another.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogChunk {
    /// The catalog root: the WAL position this catalog image corresponds to
    /// and, per table, the first page of its metadata segment.
    Root {
        /// Recovery skips log records below this LSN (already reflected in
        /// the pages) and replays everything at or above it.
        checkpoint_lsn: u64,
        /// `(table name, first page of the table's metadata segment)`.
        tables: Vec<(String, PageId)>,
    },
    /// One table's metadata (counters, chunk directory, indexes).
    TableMeta(TableMetaChunk),
    /// A run of row-directory entries: row id (dense index) → heap record,
    /// `None` once deleted.  All chunks but a table's last hold exactly
    /// [`ROWS_PER_CHUNK`] entries.
    Rows(Vec<Option<RecordId>>),
    /// A run of heap-directory page ids.  All chunks but a table's last
    /// hold exactly [`HEAP_IDS_PER_CHUNK`] ids.
    Heap(Vec<PageId>),
}

/// Encodes a chunk with its `magic | version | tag` header.
pub fn encode_chunk(chunk: &CatalogChunk) -> Vec<u8> {
    let mut out = (CATALOG_MAGIC, CATALOG_VERSION).to_bytes();
    match chunk {
        CatalogChunk::Root {
            checkpoint_lsn,
            tables,
        } => {
            TAG_ROOT.encode(&mut out);
            checkpoint_lsn.encode(&mut out);
            tables.encode(&mut out);
        }
        CatalogChunk::TableMeta(meta) => {
            TAG_TABLE_META.encode(&mut out);
            meta.encode(&mut out);
        }
        CatalogChunk::Rows(rows) => {
            TAG_ROWS.encode(&mut out);
            rows.encode(&mut out);
        }
        CatalogChunk::Heap(pages) => {
            TAG_HEAP.encode(&mut out);
            pages.encode(&mut out);
        }
    }
    out
}

/// Decodes a chunk, validating the header and requiring every byte to be
/// consumed.  Bad magic, a foreign version (e.g. a v2 catalog), an unknown
/// tag, or trailing bytes all fail with [`StorageError::Corrupt`]; a
/// truncated body fails with the decoder's own error.
pub fn decode_chunk(bytes: &[u8]) -> StorageResult<CatalogChunk> {
    let mut buf = bytes;
    if !take_header(&mut buf, "catalog", CATALOG_MAGIC, CATALOG_VERSION)? {
        return Err(StorageError::Corrupt(
            "page holds no catalog chunk (bad magic; not a Database file?)".into(),
        ));
    }
    let tag = u8::decode(&mut buf)?;
    let chunk = match tag {
        TAG_ROOT => CatalogChunk::Root {
            checkpoint_lsn: u64::decode(&mut buf)?,
            tables: Vec::decode(&mut buf)?,
        },
        TAG_TABLE_META => CatalogChunk::TableMeta(TableMetaChunk::decode(&mut buf)?),
        TAG_ROWS => CatalogChunk::Rows(Vec::decode(&mut buf)?),
        TAG_HEAP => CatalogChunk::Heap(Vec::decode(&mut buf)?),
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown catalog chunk tag {other}"
            )))
        }
    };
    if !buf.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after catalog chunk",
            buf.len()
        )));
    }
    Ok(chunk)
}

/// Where one table's catalog state lives on disk, as of the last successful
/// write.  Each inner `Vec<PageId>` is one segment (page chain).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TableLayout {
    /// Pages of the metadata segment.
    pub meta_pages: Vec<PageId>,
    /// Pages of each row-directory chunk segment, in chunk order.
    pub row_chunks: Vec<Vec<PageId>>,
    /// Pages of each heap-directory chunk segment, in chunk order.
    pub heap_chunks: Vec<Vec<PageId>>,
    /// The heap-directory *data* per chunk at the last checkpoint, kept to
    /// diff against: a heap chunk whose ids are unchanged is skipped.
    pub last_heap: Vec<Vec<PageId>>,
}

/// Where the whole catalog lives on disk.  `Database` carries one of these
/// between checkpoints so each checkpoint knows which pages to reuse.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CatalogLayout {
    /// Pages of the root segment; the first is always [`CATALOG_ROOT`].
    pub root_pages: Vec<PageId>,
    /// Per-table layout, keyed by table name.
    pub tables: BTreeMap<String, TableLayout>,
}

impl CatalogLayout {
    /// A fresh layout for a just-created database: root segment at page 0,
    /// no tables.
    pub fn new_at_root(root: PageId) -> Self {
        CatalogLayout {
            root_pages: vec![root],
            tables: BTreeMap::new(),
        }
    }
}

/// The row-directory part of a checkpoint snapshot: either the whole
/// directory (new or wholly dirty table) or just the dirty chunks.
#[derive(Debug, Clone)]
pub(crate) enum RowsDelta {
    /// Rewrite every chunk from this full directory image.
    Full(Vec<Option<RecordId>>),
    /// Rewrite only these chunks: `(chunk index, chunk contents)`, sorted
    /// by ascending chunk index.
    Chunks(Vec<(u64, Vec<Option<RecordId>>)>),
}

/// Everything a checkpoint captured from one mutated table while its DML
/// guard was held.  Clean tables produce no snapshot and cost no writes.
#[derive(Debug, Clone)]
pub(crate) struct TableSnapshot {
    /// Table name.
    pub name: String,
    /// Key type tag.
    pub key_type: u8,
    /// Pages owned by the heap file, in allocation order.
    pub heap_pages: Vec<PageId>,
    /// Live records in the heap.
    pub heap_records: u64,
    /// Live rows.
    pub live_rows: u64,
    /// Distinct-values statistic.
    pub distinct: u64,
    /// Total row-directory length at snapshot time.
    pub rows_len: u64,
    /// Dirty row-directory content.
    pub rows: RowsDelta,
    /// Every physical index on the table.
    pub indexes: Vec<PersistedIndex>,
}

/// What one catalog update wrote (and skipped), for [`CheckpointStats`]
/// accounting and for the selective flush that follows.
///
/// [`CheckpointStats`]: spgist_storage::CheckpointStats
#[derive(Debug, Default)]
pub(crate) struct CatalogWriteOutcome {
    /// Row/heap chunks rewritten.
    pub chunks_written: u64,
    /// Row/heap chunks left untouched on disk (clean tables included).
    pub chunks_skipped: u64,
    /// Encoded catalog bytes written (chunks + metas + root).
    pub bytes_written: u64,
    /// Every page the update wrote through the pool — the set the caller
    /// must flush before deleting the checkpoint journal.
    pub written_pages: HashSet<PageId>,
}

/// The on-disk pages a catalog update may overwrite in place, given the
/// snapshots about to be applied: the root segment, plus each mutated
/// table's metadata segment, heap chunk segments, and dirty row chunk
/// segments.  These (and nothing more) need pre-imaging in the checkpoint
/// journal; pages the update *allocates* are fresh and pages it *frees* are
/// only published after the journal is deleted.
pub(crate) fn overwrite_targets(layout: &CatalogLayout, snaps: &[TableSnapshot]) -> Vec<PageId> {
    let mut targets: Vec<PageId> = layout.root_pages.clone();
    for snap in snaps {
        let Some(tl) = layout.tables.get(&snap.name) else {
            continue; // new table: every page is a fresh allocation
        };
        targets.extend(tl.meta_pages.iter().copied());
        targets.extend(tl.heap_chunks.iter().flatten().copied());
        match &snap.rows {
            RowsDelta::Full(_) => {
                targets.extend(tl.row_chunks.iter().flatten().copied());
            }
            RowsDelta::Chunks(dirty) => {
                for (idx, _) in dirty {
                    if let Some(seg) = tl.row_chunks.get(*idx as usize) {
                        targets.extend(seg.iter().copied());
                    }
                }
                // A shrunken directory frees trailing segments; freed pages
                // are not overwritten, so they need no pre-image.
            }
        }
    }
    targets
}

/// Writes `bytes` through the segment rooted at `pages[0]`, reusing the
/// pages in `pages` (extending or shrinking the chain as the payload
/// requires) and leaving `pages` naming exactly the segment's pages.  Page
/// contents go through the buffer pool; the caller decides when to flush.
fn write_segment(
    pool: &Arc<BufferPool>,
    pages: &mut Vec<PageId>,
    bytes: &[u8],
) -> StorageResult<()> {
    let fragments: Vec<&[u8]> = bytes.chunks(SEG_CHUNK).collect();
    debug_assert!(
        !fragments.is_empty(),
        "the chunk header makes every payload non-empty"
    );
    while pages.len() < fragments.len() {
        pages.push(pool.allocate_page()?);
    }
    while pages.len() > fragments.len() {
        let extra = pages.pop().expect("segment is longer than one fragment");
        pool.free_page(extra)?;
    }
    for (i, fragment) in fragments.iter().enumerate() {
        let next = pages.get(i + 1).copied().unwrap_or(CHAIN_END);
        let mut record = Vec::with_capacity(4 + fragment.len());
        next.encode(&mut record);
        record.extend_from_slice(fragment);
        pool.with_page_mut(pages[i], |p| {
            *p = Page::new();
            p.insert(&record).map(|_| ())
        })??;
    }
    Ok(())
}

/// Reads the segment rooted at `start`, returning the reassembled payload
/// and the segment's page list.  `visited` is shared across every segment
/// of one catalog read so aliased or cyclic chains fail loudly.
fn read_segment(
    pool: &Arc<BufferPool>,
    start: PageId,
    visited: &mut HashSet<PageId>,
) -> StorageResult<(Vec<u8>, Vec<PageId>)> {
    let corrupt = |msg: String| StorageError::Corrupt(msg);
    let mut payload = Vec::new();
    let mut pages = Vec::new();
    let mut cursor = start;
    while cursor != CHAIN_END {
        if !visited.insert(cursor) {
            return Err(corrupt(format!("catalog segment revisits page {cursor}")));
        }
        pages.push(cursor);
        let record = pool
            .with_page(cursor, |p| p.get(0).map(<[u8]>::to_vec))
            .map_err(|e| corrupt(format!("catalog page {cursor} unreadable: {e}")))?
            .map_err(|e| corrupt(format!("catalog page {cursor} holds no record: {e}")))?;
        let mut buf = record.as_slice();
        let next = PageId::decode(&mut buf)
            .map_err(|e| corrupt(format!("catalog page {cursor} truncated: {e}")))?;
        payload.extend_from_slice(buf);
        cursor = next;
    }
    Ok((payload, pages))
}

/// Keeps [`StorageError::Corrupt`] intact and wraps every other decode
/// failure in one, naming the piece that failed.
fn as_corrupt(e: StorageError, what: &str) -> StorageError {
    match e {
        c @ StorageError::Corrupt(_) => c,
        other => StorageError::Corrupt(format!("{what} does not decode: {other}")),
    }
}

fn write_tracked(
    pool: &Arc<BufferPool>,
    pages: &mut Vec<PageId>,
    bytes: &[u8],
    outcome: &mut CatalogWriteOutcome,
) -> StorageResult<()> {
    write_segment(pool, pages, bytes)?;
    outcome.bytes_written += bytes.len() as u64;
    outcome.written_pages.extend(pages.iter().copied());
    Ok(())
}

fn free_segment(pool: &Arc<BufferPool>, pages: Vec<PageId>) -> StorageResult<()> {
    for page in pages {
        pool.free_page(page)?;
    }
    Ok(())
}

/// Applies one checkpoint's catalog delta: drops tables no longer in
/// `live`, rewrites each snapshot's dirty row chunks / changed heap chunks
/// / metadata, and rewrites the root.  `layout` is updated in place to the
/// new page assignment.  Tables in `live` but not in `snaps` are untouched
/// — their segments (and the root's reference to them) survive as-is.
///
/// Ordering matters for crash-atomicity: the caller journals
/// [`overwrite_targets`] *before* this runs, flushes the written pages
/// after, and only then deletes the journal.  Frees go through the pool's
/// deferred `pending_free`, published after the journal deletion, so a
/// rollback to the previous catalog never finds its pages reused.
pub(crate) fn apply_catalog_update(
    pool: &Arc<BufferPool>,
    layout: &mut CatalogLayout,
    snaps: &[TableSnapshot],
    live: &BTreeSet<String>,
    checkpoint_lsn: u64,
) -> StorageResult<CatalogWriteOutcome> {
    let mut outcome = CatalogWriteOutcome::default();

    // Dropped tables: release every segment and forget the layout entry.
    let dropped: Vec<String> = layout
        .tables
        .keys()
        .filter(|name| !live.contains(*name))
        .cloned()
        .collect();
    for name in dropped {
        let tl = layout.tables.remove(&name).expect("key came from the map");
        free_segment(pool, tl.meta_pages)?;
        for seg in tl.row_chunks {
            free_segment(pool, seg)?;
        }
        for seg in tl.heap_chunks {
            free_segment(pool, seg)?;
        }
    }

    for snap in snaps {
        let tl = layout.tables.entry(snap.name.clone()).or_default();
        let chunk_count = snap.rows_len.div_ceil(ROWS_PER_CHUNK) as usize;

        // Row directory.  Shrink first (defensive: the executor's directory
        // never shrinks today, but a shorter snapshot must not leave stale
        // trailing chunks reachable), then rewrite the dirty chunks.
        while tl.row_chunks.len() > chunk_count {
            let seg = tl.row_chunks.pop().expect("len checked above");
            free_segment(pool, seg)?;
        }
        let written_before = outcome.chunks_written;
        match &snap.rows {
            RowsDelta::Full(rows) => {
                debug_assert_eq!(rows.len() as u64, snap.rows_len);
                for i in 0..chunk_count {
                    let lo = i * ROWS_PER_CHUNK as usize;
                    let hi = (lo + ROWS_PER_CHUNK as usize).min(rows.len());
                    if tl.row_chunks.len() == i {
                        tl.row_chunks.push(Vec::new());
                    }
                    let body = encode_chunk(&CatalogChunk::Rows(rows[lo..hi].to_vec()));
                    write_tracked(pool, &mut tl.row_chunks[i], &body, &mut outcome)?;
                    outcome.chunks_written += 1;
                }
            }
            RowsDelta::Chunks(dirty) => {
                for (idx, data) in dirty {
                    let i = *idx as usize;
                    if i >= chunk_count {
                        continue; // stale mark past a shrink
                    }
                    if i > tl.row_chunks.len() {
                        return Err(StorageError::Corrupt(format!(
                            "checkpoint snapshot for table {:?} skips row chunk {}",
                            snap.name,
                            tl.row_chunks.len()
                        )));
                    }
                    if i == tl.row_chunks.len() {
                        tl.row_chunks.push(Vec::new());
                    }
                    let body = encode_chunk(&CatalogChunk::Rows(data.clone()));
                    write_tracked(pool, &mut tl.row_chunks[i], &body, &mut outcome)?;
                    outcome.chunks_written += 1;
                }
            }
        }
        let rows_written = outcome.chunks_written - written_before;
        outcome.chunks_skipped += chunk_count as u64 - rows_written;

        // Heap directory: rewrite only chunks whose ids changed since the
        // last checkpoint (append-mostly, so usually just the final chunk).
        let heap_data: Vec<Vec<PageId>> = snap
            .heap_pages
            .chunks(HEAP_IDS_PER_CHUNK)
            .map(<[PageId]>::to_vec)
            .collect();
        while tl.heap_chunks.len() > heap_data.len() {
            let seg = tl.heap_chunks.pop().expect("len checked above");
            free_segment(pool, seg)?;
        }
        tl.last_heap.truncate(tl.heap_chunks.len());
        for (i, data) in heap_data.iter().enumerate() {
            if i < tl.heap_chunks.len() && tl.last_heap.get(i) == Some(data) {
                outcome.chunks_skipped += 1;
                continue;
            }
            if i == tl.heap_chunks.len() {
                tl.heap_chunks.push(Vec::new());
            }
            let body = encode_chunk(&CatalogChunk::Heap(data.clone()));
            write_tracked(pool, &mut tl.heap_chunks[i], &body, &mut outcome)?;
            outcome.chunks_written += 1;
        }
        tl.last_heap = heap_data;

        // Metadata segment: counters + the (possibly relocated) chunk
        // directory + index identities.
        let meta = TableMetaChunk {
            name: snap.name.clone(),
            key_type: snap.key_type,
            heap_records: snap.heap_records,
            live_rows: snap.live_rows,
            distinct: snap.distinct,
            rows_len: snap.rows_len,
            row_chunks: tl.row_chunks.iter().map(|seg| seg[0]).collect(),
            heap_len: snap.heap_pages.len() as u64,
            heap_chunks: tl.heap_chunks.iter().map(|seg| seg[0]).collect(),
            indexes: snap.indexes.clone(),
        };
        let body = encode_chunk(&CatalogChunk::TableMeta(meta));
        let mut meta_pages = std::mem::take(&mut tl.meta_pages);
        write_tracked(pool, &mut meta_pages, &body, &mut outcome)?;
        tl.meta_pages = meta_pages;
    }

    // Clean tables cost zero writes; count their chunks as skipped so the
    // stats show what incrementality saved.
    let snapped: BTreeSet<&str> = snaps.iter().map(|s| s.name.as_str()).collect();
    for (name, tl) in &layout.tables {
        if !snapped.contains(name.as_str()) {
            outcome.chunks_skipped += (tl.row_chunks.len() + tl.heap_chunks.len()) as u64;
        }
    }
    debug_assert!(
        live.iter().all(|name| layout.tables.contains_key(name)),
        "every live table must be reachable from the root"
    );

    // Root last: once it lands (journal deleted), the new chunk assignment
    // is the catalog.
    let root = CatalogChunk::Root {
        checkpoint_lsn,
        tables: layout
            .tables
            .iter()
            .map(|(name, tl)| (name.clone(), tl.meta_pages[0]))
            .collect(),
    };
    let body = encode_chunk(&root);
    let mut root_pages = std::mem::take(&mut layout.root_pages);
    write_tracked(pool, &mut root_pages, &body, &mut outcome)?;
    layout.root_pages = root_pages;
    debug_assert_eq!(layout.root_pages.first(), Some(&CATALOG_ROOT));
    Ok(outcome)
}

/// Durable state of one table as reassembled by [`read_catalog`]: heap
/// directory, row directory, statistics seeds, and every index.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PersistedTable {
    /// Table name.
    pub name: String,
    /// Key type tag (0 varchar, 1 point, 2 segment).
    pub key_type: u8,
    /// Pages owned by the heap file, in allocation order.
    pub heap_pages: Vec<PageId>,
    /// Live records in the heap.
    pub heap_records: u64,
    /// Live rows (row directory entries that are `Some`).
    pub live_rows: u64,
    /// Distinct-values statistic at checkpoint time (a seed, not truth).
    pub distinct: u64,
    /// Row directory: row id (dense index) → heap record, `None` once
    /// deleted.
    pub rows: Vec<Option<RecordId>>,
    /// Every physical index on the table.
    pub indexes: Vec<PersistedIndex>,
}

/// The whole catalog meta-table, reassembled from the chunked form.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PersistedCatalog {
    /// The WAL position this catalog image corresponds to.
    pub checkpoint_lsn: u64,
    /// Every table in the database.
    pub tables: Vec<PersistedTable>,
}

/// A directory as [`read_directory`] returns it: per chunk, its entries and
/// its segment's pages.
type Directory<T> = (Vec<Vec<T>>, Vec<Vec<PageId>>);

/// Reads one table's row or heap directory (`what`): the chunk segments
/// rooted at `starts`, read by `segment`, each holding a chunk that
/// `unwrap` accepts, together `len` entries — `per_chunk` in every chunk
/// but the last.  The entries grow from the chunks actually decoded: a
/// lying `len` fails a chunk's length check and is never reserved up front.
fn read_directory<T>(
    segment: &mut impl FnMut(PageId) -> StorageResult<(Vec<u8>, Vec<PageId>)>,
    table: &str,
    what: &str,
    starts: &[PageId],
    len: u64,
    per_chunk: u64,
    unwrap: impl Fn(CatalogChunk) -> Option<Vec<T>>,
) -> StorageResult<Directory<T>> {
    let expected_chunks = len.div_ceil(per_chunk) as usize;
    if starts.len() != expected_chunks {
        return Err(StorageError::Corrupt(format!(
            "table {table:?} declares {len} {what} entries but lists {} {what} chunks \
             (expected {expected_chunks})",
            starts.len()
        )));
    }
    let mut chunks = Vec::with_capacity(expected_chunks);
    let mut segments = Vec::with_capacity(expected_chunks);
    for (i, &start) in starts.iter().enumerate() {
        let place = || format!("{what} chunk {i} of table {table:?}");
        let (bytes, pages) = segment(start)?;
        let chunk = decode_chunk(&bytes).map_err(|e| as_corrupt(e, &place()))?;
        let Some(data) = unwrap(chunk) else {
            return Err(StorageError::Corrupt(format!(
                "{} holds a non-{what} chunk",
                place()
            )));
        };
        let expected_len = (len - i as u64 * per_chunk).min(per_chunk);
        if data.len() as u64 != expected_len {
            return Err(StorageError::Corrupt(format!(
                "{} holds {} entries (expected {expected_len})",
                place(),
                data.len()
            )));
        }
        chunks.push(data);
        segments.push(pages);
    }
    Ok((chunks, segments))
}

/// Reads and validates the whole chunked catalog rooted at
/// [`CATALOG_ROOT`], returning the reassembled tables and the page layout
/// (for subsequent incremental rewrites).  Every failure — missing record,
/// bad pointer, foreign version, wrong chunk kind, chunk-count or
/// chunk-length mismatch, aliased segments — is reported as
/// [`StorageError::Corrupt`]: a damaged catalog must never be silently
/// misread.
pub(crate) fn read_catalog(
    pool: &Arc<BufferPool>,
) -> StorageResult<(PersistedCatalog, CatalogLayout)> {
    let corrupt = |msg: String| StorageError::Corrupt(msg);
    let mut visited = HashSet::new();
    let mut segment = |start| read_segment(pool, start, &mut visited);
    let (root_bytes, root_pages) = segment(CATALOG_ROOT)?;
    let root = decode_chunk(&root_bytes).map_err(|e| as_corrupt(e, "catalog root"))?;
    let CatalogChunk::Root {
        checkpoint_lsn,
        tables: roots,
    } = root
    else {
        return Err(corrupt("catalog root page holds a non-root chunk".into()));
    };

    let mut tables = Vec::with_capacity(roots.len());
    let mut layout_tables = BTreeMap::new();
    for (name, meta_start) in roots {
        let (meta_bytes, meta_pages) = segment(meta_start)?;
        let meta = match decode_chunk(&meta_bytes)
            .map_err(|e| as_corrupt(e, &format!("metadata of table {name:?}")))?
        {
            CatalogChunk::TableMeta(meta) => meta,
            _ => {
                return Err(corrupt(format!(
                    "metadata segment of table {name:?} holds a non-metadata chunk"
                )))
            }
        };
        if meta.name != name {
            return Err(corrupt(format!(
                "catalog root names table {name:?} but its metadata names {:?}",
                meta.name
            )));
        }

        let (rows, row_chunks) = read_directory(
            &mut segment,
            &name,
            "row",
            &meta.row_chunks,
            meta.rows_len,
            ROWS_PER_CHUNK,
            |chunk| match chunk {
                CatalogChunk::Rows(data) => Some(data),
                _ => None,
            },
        )?;
        let (last_heap, heap_chunks) = read_directory(
            &mut segment,
            &name,
            "heap",
            &meta.heap_chunks,
            meta.heap_len,
            HEAP_IDS_PER_CHUNK as u64,
            |chunk| match chunk {
                CatalogChunk::Heap(data) => Some(data),
                _ => None,
            },
        )?;

        tables.push(PersistedTable {
            name: name.clone(),
            key_type: meta.key_type,
            heap_pages: last_heap.concat(),
            heap_records: meta.heap_records,
            live_rows: meta.live_rows,
            distinct: meta.distinct,
            rows: rows.concat(),
            indexes: meta.indexes,
        });
        layout_tables.insert(
            name,
            TableLayout {
                meta_pages,
                row_chunks,
                heap_chunks,
                last_heap,
            },
        );
    }

    Ok((
        PersistedCatalog {
            checkpoint_lsn,
            tables,
        },
        CatalogLayout {
            root_pages,
            tables: layout_tables,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_core::{NodeShrink, PathShrink};

    fn sample_config() -> SpGistConfig {
        SpGistConfig {
            partitions: 27,
            bucket_size: 16,
            resolution: 128,
            path_shrink: PathShrink::TreeShrink,
            node_shrink: NodeShrink::OmitEmpty,
            split_once: false,
        }
    }

    fn sample_rows(n: usize) -> Vec<Option<RecordId>> {
        (0..n)
            .map(|i| (i % 7 != 0).then(|| RecordId::new((i / 100) as PageId, (i % 100) as u16)))
            .collect()
    }

    fn sample_snapshot(name: &str, rows: usize) -> TableSnapshot {
        let data = sample_rows(rows);
        TableSnapshot {
            name: name.to_string(),
            key_type: 1,
            heap_pages: (0..rows / 50 + 1).map(|i| 1000 + i as PageId).collect(),
            heap_records: data.iter().flatten().count() as u64,
            live_rows: data.iter().flatten().count() as u64,
            distinct: rows as u64 / 2,
            rows_len: rows as u64,
            rows: RowsDelta::Full(data),
            indexes: vec![PersistedIndex {
                name: format!("ix-{name}"),
                kind: KIND_TRIE,
                config: sample_config(),
                world: Rect::new(0.0, 0.0, 100.0, 100.0),
                meta_page: 7,
                pages: vec![7, 8, 9],
            }],
        }
    }

    fn live(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_chunk_variant_roundtrips() {
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
                indexes: vec![],
            }),
            CatalogChunk::Rows(sample_rows(10)),
            CatalogChunk::Heap(vec![1, 2, 3]),
        ];
        for chunk in chunks {
            assert_eq!(decode_chunk(&encode_chunk(&chunk)).unwrap(), chunk);
        }
    }

    #[test]
    fn foreign_versions_and_tags_fail_with_corrupt() {
        let good = encode_chunk(&CatalogChunk::Heap(vec![1]));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_chunk(&bad), Err(StorageError::Corrupt(_))));
        // Older catalogs: same magic, version byte 2, 3 or 4.
        for version in [2, 3, 4] {
            let mut old = good.clone();
            old[4] = version;
            match decode_chunk(&old) {
                Err(StorageError::Corrupt(msg)) => assert_eq!(
                    msg,
                    format!(
                        "unsupported catalog version {version} \
                         (this build reads version 5; no migration)"
                    )
                ),
                other => panic!("v{version} must be Corrupt, got {other:?}"),
            }
        }
        // Unknown tag.
        let mut tag = good.clone();
        tag[5] = 99;
        assert!(matches!(decode_chunk(&tag), Err(StorageError::Corrupt(_))));
        // Trailing garbage.
        let mut long = good;
        long.push(0);
        assert!(matches!(decode_chunk(&long), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn catalog_roundtrips_and_untouched_tables_cost_zero_writes() {
        let pool = BufferPool::in_memory();
        let root = pool.allocate_page().unwrap();
        assert_eq!(root, CATALOG_ROOT);
        let mut layout = CatalogLayout::new_at_root(root);

        // Two tables, one big enough to chunk (3 chunks).
        let snaps = vec![sample_snapshot("small", 10), sample_snapshot("big", 2_500)];
        let out =
            apply_catalog_update(&pool, &mut layout, &snaps, &live(&["small", "big"]), 41).unwrap();
        assert_eq!(out.chunks_written, 4 + 2); // 1 + 3 row chunks, 2 heap chunks
        let (read, read_layout) = read_catalog(&pool).unwrap();
        assert_eq!(read.checkpoint_lsn, 41);
        assert_eq!(read.tables.len(), 2);
        let big = read.tables.iter().find(|t| t.name == "big").unwrap();
        assert_eq!(big.rows, sample_rows(2_500));
        assert_eq!(read_layout, layout);

        // Rewrite only chunk 1 of "big": the small table and the other
        // chunks cost zero page writes.
        let mut delta = sample_snapshot("big", 2_500);
        let patched: Vec<Option<RecordId>> = (0..1000).map(|_| None).collect();
        delta.rows = RowsDelta::Chunks(vec![(1, patched.clone())]);
        let before = layout.clone();
        let out = apply_catalog_update(&pool, &mut layout, &[delta], &live(&["small", "big"]), 42)
            .unwrap();
        assert_eq!(out.chunks_written, 1);
        // big: 2 untouched row chunks + 1 unchanged heap chunk; small
        // (clean): 1 row chunk + 1 heap chunk.
        assert_eq!(out.chunks_skipped, 2 + 1 + 2);
        let small_pages: Vec<PageId> = before.tables["small"]
            .meta_pages
            .iter()
            .chain(before.tables["small"].row_chunks.iter().flatten())
            .copied()
            .collect();
        for p in small_pages {
            assert!(
                !out.written_pages.contains(&p),
                "untouched table page {p} was written"
            );
        }
        let (read, _) = read_catalog(&pool).unwrap();
        let big = read.tables.iter().find(|t| t.name == "big").unwrap();
        assert_eq!(big.rows[1000..2000], patched[..]);
        assert_eq!(big.rows[..1000], sample_rows(2_500)[..1000]);
        assert_eq!(read.checkpoint_lsn, 42);
    }

    #[test]
    fn dropping_a_table_frees_its_segments() {
        let pool = BufferPool::in_memory();
        let root = pool.allocate_page().unwrap();
        let mut layout = CatalogLayout::new_at_root(root);
        let snaps = vec![sample_snapshot("keep", 10), sample_snapshot("drop", 2_500)];
        apply_catalog_update(&pool, &mut layout, &snaps, &live(&["keep", "drop"]), 1).unwrap();

        let free_before = pool.free_page_count();
        apply_catalog_update(&pool, &mut layout, &[], &live(&["keep"]), 2).unwrap();
        pool.flush_all().unwrap(); // publish the deferred frees
        assert!(pool.free_page_count() > free_before);
        assert!(!layout.tables.contains_key("drop"));
        let (read, _) = read_catalog(&pool).unwrap();
        assert_eq!(read.tables.len(), 1);
        assert_eq!(read.tables[0].name, "keep");
    }

    #[test]
    fn torn_catalog_fails_with_corrupt() {
        let pool = BufferPool::in_memory();
        let root = pool.allocate_page().unwrap();
        let mut layout = CatalogLayout::new_at_root(root);
        let snaps = vec![sample_snapshot("t", 2_500)];
        apply_catalog_update(&pool, &mut layout, &snaps, &live(&["t"]), 1).unwrap();

        // Zero a row-chunk page: the read must fail loudly.
        let victim = layout.tables["t"].row_chunks[1][0];
        pool.with_page_mut(victim, |p| *p = Page::new()).unwrap();
        assert!(matches!(read_catalog(&pool), Err(StorageError::Corrupt(_))));
        // Zero the root page: same.
        pool.with_page_mut(root, |p| *p = Page::new()).unwrap();
        assert!(matches!(read_catalog(&pool), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn lying_directory_lengths_are_corrupt_not_reserved() {
        // A metadata chunk can list as many chunk pointers as its lengths
        // claim and still lie about what they hold: 50 000 pointers (behind
        // a three-byte varint count) "cover" 50 M rows or 75 M heap ids
        // (~0.6 GB were the claim reserved).  The read ends in `Corrupt` at
        // the first short chunk.
        let pool = BufferPool::in_memory();
        let root = pool.allocate_page().unwrap();
        let mut layout = CatalogLayout::new_at_root(root);
        let snaps = [sample_snapshot("t", 10)];
        apply_catalog_update(&pool, &mut layout, &snaps, &live(&["t"]), 1).unwrap();
        let table = &layout.tables["t"];
        let (bytes, _) = read_segment(&pool, table.meta_pages[0], &mut HashSet::new()).unwrap();
        let CatalogChunk::TableMeta(honest) = decode_chunk(&bytes).unwrap() else {
            panic!("the metadata segment holds a metadata chunk");
        };
        let chunks = 50_000;
        let mut rows_lie = honest.clone();
        rows_lie.rows_len = chunks as u64 * ROWS_PER_CHUNK;
        rows_lie.row_chunks = vec![honest.row_chunks[0]; chunks];
        let mut heap_lie = honest.clone();
        heap_lie.heap_len = (chunks * HEAP_IDS_PER_CHUNK) as u64;
        heap_lie.heap_chunks = vec![heap_lie.heap_chunks[0]; chunks];
        // And the varint in front of the row-chunk list claiming 4 G
        // pointers, one present: the header, the name, the key type and
        // four counters come first.
        let honest = encode_chunk(&CatalogChunk::TableMeta(honest));
        let at = 6 + 1 + "t".len() + 1 + 4 * 8;
        assert_eq!(honest[at], 1, "one row chunk");
        let four_g = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let vec_lie = [&honest[..at], &four_g, &honest[at + 1..]].concat();
        let [rows_lie, heap_lie] =
            [rows_lie, heap_lie].map(|lie| encode_chunk(&CatalogChunk::TableMeta(lie)));
        for lie in [rows_lie, heap_lie, vec_lie] {
            let mut pages = table.meta_pages.clone();
            write_segment(&pool, &mut pages, &lie).unwrap();
            assert!(matches!(read_catalog(&pool), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn growing_a_table_appends_chunks_without_rewriting_old_ones() {
        let pool = BufferPool::in_memory();
        let root = pool.allocate_page().unwrap();
        let mut layout = CatalogLayout::new_at_root(root);
        apply_catalog_update(
            &pool,
            &mut layout,
            &[sample_snapshot("t", 1_500)],
            &live(&["t"]),
            1,
        )
        .unwrap();
        let chunk0_pages = layout.tables["t"].row_chunks[0].clone();

        // Grow to 2_500 rows: chunk 1 changed (was partial), chunk 2 is
        // new; chunk 0 is untouched.
        let full = sample_rows(2_500);
        let mut snap = sample_snapshot("t", 2_500);
        snap.rows = RowsDelta::Chunks(vec![
            (1, full[1000..2000].to_vec()),
            (2, full[2000..].to_vec()),
        ]);
        let out = apply_catalog_update(&pool, &mut layout, &[snap], &live(&["t"]), 2).unwrap();
        for p in &chunk0_pages {
            assert!(!out.written_pages.contains(p), "chunk 0 page {p} rewritten");
        }
        let (read, _) = read_catalog(&pool).unwrap();
        assert_eq!(read.tables[0].rows, full);
    }
}
