//! The append-only segmented log and its group commit.
//!
//! # On-disk format
//!
//! The log is a family of sibling files next to the database file, named
//! `<db>.wal.<seq>` with a strictly increasing decimal `<seq>`.  Each
//! segment starts with a 16-byte header
//!
//! ```text
//! magic "SPGW" (u32 LE) | version (u32 LE) | base_lsn (u64 LE)
//! ```
//!
//! followed by records framed as
//!
//! ```text
//! payload_len (u32 LE) | crc32(payload) (u32 LE) | payload
//! ```
//!
//! Records carry no explicit LSN: they are numbered densely, so a record's
//! LSN is `base_lsn + its index in the segment`, and each segment's
//! `base_lsn` must equal its predecessor's end — a gap or overlap is
//! [`StorageError::Corrupt`].
//!
//! Every group-committed batch (the set of frames written together) is
//! terminated by a **batch seal**, distinguished from a record frame by a
//! zero length field:
//!
//! ```text
//! 0 (u32 LE) | magic "SPGS" (u32 LE) | record_count (u32 LE)
//!           | crc32(batch frame bytes) (u32 LE) | crc32(first 16 bytes) (u32 LE)
//! ```
//!
//! Replay only accepts records up to the last valid seal, so a torn group
//! commit is detected — and discarded — **as a unit**: either every record
//! a batch's `fsync` covered survives, or none of them does.  Without the
//! seal, a crash mid-batch could surface a prefix of a batch whose commit
//! was never acknowledged yet whose early frames happened to hit disk.
//!
//! The active segment is sized ahead of its last seal: a batch that would
//! pass the file's length first extends it by a small step (sparse, no
//! bytes written) inside the same sync, so the syncs in between flush data
//! and never a new file size.  The tail past the last seal reads as zeros,
//! which end the log like any torn tail.  A segment is cut back to its last
//! seal when it is sealed and when the log closes cleanly, so a sealed
//! segment ends exactly at its last seal.
//!
//! # Torn tails vs. corruption
//!
//! Only the **last** segment can legitimately end mid-batch (the process
//! died between `write` and `fsync`): on open, the first short frame,
//! CRC-failing frame, zero tail, or missing/invalid seal in the last
//! segment ends the log and the file is truncated back to the end of the
//! last *sealed batch*.  Sealed segments are fully synced and cut to their
//! last seal before their successor is created, so damage there —
//! including any byte past the last seal — is real corruption and fails
//! the open.  A record whose CRC matches but whose payload does not decode
//! is corruption everywhere — a torn write cannot produce a matching CRC.
//!
//! # Group commit
//!
//! Writers [`Wal::submit`] a record (cheap: an in-memory append under a
//! mutex, returning the assigned LSN) and then [`Wal::wait_durable`] on
//! that LSN.  A record is encoded once, straight into its [`Frame`] (a
//! bulk insert row by row, through [`InsertFrame`](crate::InsertFrame)),
//! and never copied after.  There is no log thread: the committing writer
//! syncs the log itself, as PostgreSQL's `XLogFlush` does.  A waiter whose
//! record is not yet durable, finding no flush running, **leads** one: it
//! takes the queue (at most `MAX_BATCH`, 64, records), writes the batch's
//! frames and seal where they lie in one vectored `write`, issues **one**
//! `fsync`, publishes durability and wakes the other waiters, who recheck
//! and lead the next batch if theirs is still queued.  Batching arises from
//! the commits that queue up while a sync is in flight; a leader never
//! holds a batch open to let it fill.  Records submitted and not awaited —
//! a transaction's statements ahead of its `CommitTxn` — buy no `fsync` of
//! their own: a submitter that fills the queue writes that batch out sealed
//! but unsynced, so the queue stays bounded and no `fsync` runs under the
//! submitter's locks, and the commit's sync covers it.  Dropping the log
//! writes and syncs whatever is still queued.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use spgist_storage::codec::{take, take_header};
use spgist_storage::crc::{crc32, crc32_update};
use spgist_storage::pager::sync_dir;
use spgist_storage::{Codec, StorageError, StorageResult};

use crate::record::{Lsn, WalRecord};

/// Magic marker leading every WAL segment file (`"SPGW"`).
const SEGMENT_MAGIC: u32 = 0x5350_4757;
/// Segment format version.  Version 2 added the batch seal; version 3 added
/// transaction ids on DML records plus the `BeginTxn`/`CommitTxn`/`AbortTxn`
/// control records; version 4 writes string and byte-vector lengths inside
/// records as varints.  Older segments are refused rather than silently
/// replayed: v1 lacks torn-batch detection, v2 records decode to a
/// different layout (no txn field), so recovery could not tell committed
/// work from a loser transaction's, and a v3 record's fixed-width lengths
/// would be misread.
const SEGMENT_VERSION: u32 = 4;
/// Bytes in a segment header.
const HEADER_BYTES: u64 = 16;
/// Bytes in a record frame header (`payload_len`, `crc`).
const FRAME_HEADER_BYTES: usize = 8;
/// The most payload bytes a frame's `u32` length field describes.
pub(crate) const MAX_PAYLOAD_BYTES: usize = u32::MAX as usize;
/// Magic marker in a batch-seal frame (`"SPGS"`), following the zero
/// length field that tells it apart from a record frame.
const SEAL_MAGIC: u32 = 0x5350_4753;
/// Bytes in a batch seal: zero length, magic, record count, batch CRC,
/// seal CRC.
const SEAL_BYTES: usize = 20;

/// Most records in one batch; a queue this long is written out by the
/// submitter that filled it, sealed but unsynced, so the submission queue
/// stays bounded.
const MAX_BATCH: usize = 64;
/// How far past a batch that crosses the active segment's length the file
/// is extended, so the syncs of the batches after it commit no new size.
const SIZE_STEP: u64 = 8 << 10;

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes (checked when a batch is synced, so segments overshoot by the
    /// batches written since the last sync).
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
        }
    }
}

/// Submission queue and durability: what writers have handed over but
/// nobody has written yet, and how far the log is on stable storage.
struct Core {
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Encoded frames awaiting write, oldest first.
    pending: VecDeque<Frame>,
    /// LSN of `pending.front()` (meaningless while `pending` is empty).
    pending_first: Lsn,
    /// True while one writer (a flush's leader, the submitter writing out a
    /// full queue, or a rotation) owns the write path; the queue must not
    /// be drained by anyone else until it clears.
    flushing: bool,
    /// Everything below this LSN is on stable storage.
    durable: Lsn,
    /// Poison: a write or sync failed; every current and future waiter
    /// gets this instead of an acknowledgment, and no further submission
    /// is accepted.
    error: Option<String>,
}

/// A sealed (immutable, fully synced) segment.
struct Sealed {
    base: Lsn,
    end: Lsn,
    path: PathBuf,
}

/// The file-facing half: the active segment and the sealed ones.
struct IoState {
    dir: PathBuf,
    prefix: String,
    file: File,
    active_seq: u64,
    active_path: PathBuf,
    active_base: Lsn,
    active_records: u64,
    /// Where the active segment's last seal ends: the log's end.
    active_bytes: u64,
    /// The active segment file's length, at or past `active_bytes`.
    sized: u64,
    /// Batches written since the last sync.
    unsynced: bool,
    sealed: Vec<Sealed>,
    /// Batch `fsync`s issued since open.
    syncs: u64,
    /// Nanoseconds spent in batch writes and their syncs since open.
    sync_nanos: u64,
    /// Records written since open.
    written: u64,
}

/// The write-ahead log: see the module docs for format and protocol.
pub struct Wal {
    config: WalConfig,
    core: Mutex<Core>,
    /// Signaled whenever `flushing` clears, with durability published or
    /// the log poisoned.
    flushed: Condvar,
    io: Mutex<IoState>,
}

fn io_err(msg: String) -> StorageError {
    StorageError::Io(std::io::Error::other(msg))
}

fn segment_path(dir: &Path, prefix: &str, seq: u64) -> PathBuf {
    dir.join(format!("{prefix}.{seq:06}"))
}

/// Segment files matching `prefix` in `dir`, as `(seq, path)` sorted by
/// sequence number.
fn scan_segments(dir: &Path, prefix: &str) -> StorageResult<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(tail) = name.strip_prefix(prefix).and_then(|t| t.strip_prefix('.')) else {
            continue;
        };
        if let Ok(seq) = tail.parse::<u64>() {
            found.push((seq, entry.path()));
        }
    }
    found.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(found)
}

/// One record framed for the log: the frame header (`payload_len`, `crc`)
/// and the record's payload, in one buffer.  A record is encoded straight
/// behind the room left for its header, which is then filled in place.
#[derive(Debug, PartialEq, Eq)]
pub struct Frame(Vec<u8>);

impl Frame {
    /// An empty frame buffer: the room for its header, payload to follow.
    pub(crate) fn begin() -> Vec<u8> {
        vec![0; FRAME_HEADER_BYTES]
    }

    /// Closes a buffer from [`Frame::begin`] whose payload is complete by
    /// filling its header in.
    pub(crate) fn end(mut bytes: Vec<u8>) -> Frame {
        let payload = &bytes[FRAME_HEADER_BYTES..];
        let len = u32::try_from(payload.len()).expect("a record's payload fits its frame");
        let header = (len, crc32(payload)).to_bytes();
        bytes[..FRAME_HEADER_BYTES].copy_from_slice(&header);
        Frame(bytes)
    }

    /// `record`, framed.
    pub fn of(record: &WalRecord) -> Frame {
        let mut bytes = Frame::begin();
        record.encode(&mut bytes);
        Frame::end(bytes)
    }

    /// The frame's bytes as they go to the file.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// The seal closing a group-committed batch: a zero length field (no
/// record frame has one), the seal magic, the record count, a CRC over the
/// batch's frame bytes, and a CRC over the seal's own first 16 bytes.
/// Decoding checks the magic and the seal's own CRC.
struct Seal {
    records: u32,
    batch_crc: u32,
}

impl Codec for Seal {
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        (0u32, SEAL_MAGIC).encode(out);
        (self.records, self.batch_crc).encode(out);
        crc32(&out[start..]).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        let mut head = take(buf, SEAL_BYTES - 4)?;
        let own_crc = crc32(head);
        let (zero, magic) = <(u32, u32)>::decode(&mut head)?;
        let (records, batch_crc) = <(u32, u32)>::decode(&mut head)?;
        if zero != 0 || magic != SEAL_MAGIC || u32::decode(buf)? != own_crc {
            return Err(StorageError::Decode("not a batch seal".into()));
        }
        Ok(Seal { records, batch_crc })
    }
}

/// One frame of a segment, as read back.
enum Parsed<'a> {
    Record(&'a [u8]),
    Seal(Seal),
}

/// Reads the frame at the front of `buf`, advancing past it: a record
/// frame whose CRC holds, or a seal whose own CRC does.  Anything else —
/// short, longer than the bytes left, failing its CRC — is `Decode`: a torn
/// tail, or damage.
fn take_frame<'a>(buf: &mut &'a [u8]) -> StorageResult<Parsed<'a>> {
    let mut rest = *buf;
    let (len, crc) = <(u32, u32)>::decode(&mut rest)?;
    if len == 0 {
        return Seal::decode(buf).map(Parsed::Seal);
    }
    let payload = take(&mut rest, len as usize)?;
    if crc32(payload) != crc {
        return Err(StorageError::Decode("record CRC mismatch".into()));
    }
    *buf = rest;
    Ok(Parsed::Record(payload))
}

fn create_segment(dir: &Path, prefix: &str, seq: u64, base: Lsn) -> StorageResult<(File, PathBuf)> {
    let path = segment_path(dir, prefix, seq);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let mut header = (SEGMENT_MAGIC, SEGMENT_VERSION).to_bytes();
    base.encode(&mut header);
    file.write_all(&header)?;
    file.sync_all()?;
    sync_dir(dir);
    Ok((file, path))
}

/// One parsed segment: header info plus its decoded records, and where the
/// last sealed batch ends (for tail truncation).
struct ScannedSegment {
    base: Lsn,
    records: Vec<WalRecord>,
    good_end: u64,
}

/// Reads one segment.  Records are buffered per batch and committed only
/// when the batch's seal checks out, so a torn group commit drops as a
/// unit.  `is_last` selects torn-tail tolerance: in the last segment a
/// short frame, CRC failure, or unsealed trailing batch ends the log;
/// anywhere else it is corruption.
fn scan_segment(path: &Path, is_last: bool) -> StorageResult<ScannedSegment> {
    let bytes = std::fs::read(path)?;
    let corrupt = |msg: String| StorageError::Corrupt(format!("wal segment {path:?}: {msg}"));
    let mut rest = bytes.as_slice();
    if !take_header(&mut rest, "WAL segment", SEGMENT_MAGIC, SEGMENT_VERSION)? {
        return Err(corrupt("no segment header (not a WAL segment)".into()));
    }
    let base = Lsn::decode(&mut rest).map_err(|e| corrupt(format!("short header: {e}")))?;

    let mut records = Vec::new();
    // Records decoded since the last seal: committed to `records` only once
    // their batch seal checks out, dropped as a unit otherwise.
    let mut pending: Vec<WalRecord> = Vec::new();
    let mut batch_start = bytes.len() - rest.len();
    while !rest.is_empty() {
        let at = bytes.len() - rest.len();
        match take_frame(&mut rest) {
            // A matching CRC over bytes that do not decode is not a torn
            // write.
            Ok(Parsed::Record(payload)) => pending.push(
                WalRecord::from_bytes(payload)
                    .map_err(|e| corrupt(format!("record at byte {at} does not decode: {e}")))?,
            ),
            // A seal vouches for exactly the frames written since the
            // previous seal: one that survived a crash ahead of its batch's
            // record bytes must not commit them.
            Ok(Parsed::Seal(seal))
                if seal.records as usize == pending.len()
                    && seal.batch_crc == crc32(&bytes[batch_start..at]) =>
            {
                records.append(&mut pending);
                batch_start = bytes.len() - rest.len();
            }
            // A frame that does not check out: the torn tail of the last
            // segment, corruption anywhere else.
            _ if is_last => break,
            _ => {
                return Err(corrupt(format!(
                    "frame at byte {at} is torn in a sealed segment"
                )))
            }
        }
    }
    // Whole frames past the last seal: the writer died between `write` and
    // the batch's `fsync` — drop the batch as a unit in the last segment,
    // refuse a sealed segment that ends unsealed.
    if !pending.is_empty() && !is_last {
        return Err(corrupt("segment ends with an unsealed batch".into()));
    }
    Ok(ScannedSegment {
        base,
        records,
        good_end: batch_start as u64,
    })
}

impl Wal {
    /// Creates a fresh, empty log at `prefix` (the database path plus
    /// `.wal`), deleting any stale segments a previous database at the same
    /// path left behind.
    pub fn create<P: AsRef<Path>>(prefix: P, config: WalConfig) -> StorageResult<Wal> {
        let (dir, name) = split_prefix(prefix.as_ref())?;
        for (_, path) in scan_segments(&dir, &name)? {
            std::fs::remove_file(path)?;
        }
        sync_dir(&dir);
        let (wal, _) = Self::open(prefix, config, 0)?;
        Ok(wal)
    }

    /// Opens the log at `prefix`, scanning every segment, truncating a torn
    /// tail, and returning the surviving records as `(lsn, record)` pairs
    /// in LSN order.  With no segment and a zero `checkpoint_lsn` the log
    /// starts fresh: one empty segment based at LSN 0.
    ///
    /// `checkpoint_lsn` is the position the durable catalog claims is fully
    /// reflected in the data file: the log must still cover it — a log
    /// whose first segment starts after it has a recovery gap, and one that
    /// ends before it is missing acknowledged records; both are
    /// [`StorageError::Corrupt`].
    pub fn open<P: AsRef<Path>>(
        prefix: P,
        config: WalConfig,
        checkpoint_lsn: Lsn,
    ) -> StorageResult<(Wal, Vec<(Lsn, WalRecord)>)> {
        let (dir, name) = split_prefix(prefix.as_ref())?;
        let mut segments = scan_segments(&dir, &name)?;
        // A crash between creating a new segment and syncing its header can
        // leave a headerless last file: drop it and recover from the one
        // before.  When it is the *only* file, the crash happened during
        // the very first `Wal::create` — nothing was ever logged, so with
        // nothing checkpointed the log is simply empty and fresh.  (With a
        // nonzero checkpoint a lone sub-header file really is missing
        // acknowledged records; keep it and let `scan_segment` report it
        // as corrupt.)
        if let Some((_, last)) = segments.last() {
            let headerless = std::fs::metadata(last)?.len() < HEADER_BYTES;
            if headerless && (segments.len() > 1 || checkpoint_lsn == 0) {
                std::fs::remove_file(last)?;
                sync_dir(&dir);
                segments.pop();
            }
        }
        if segments.is_empty() {
            if checkpoint_lsn != 0 {
                return Err(StorageError::Corrupt(format!(
                    "write-ahead log missing: the catalog checkpoint is at lsn \
                     {checkpoint_lsn} but no {name}.* segments exist"
                )));
            }
            let (_, path) = create_segment(&dir, &name, 1, 0)?;
            segments.push((1, path));
        }

        // Every segment is scanned into `sealed`; the last is then taken
        // back out as the active one.
        let mut records = Vec::new();
        let mut sealed: Vec<Sealed> = Vec::new();
        let mut good_end = HEADER_BYTES;
        for (idx, (_, path)) in segments.iter().enumerate() {
            let scanned = scan_segment(path, idx + 1 == segments.len())?;
            if let Some(prev) = sealed.last().filter(|prev| prev.end != scanned.base) {
                return Err(StorageError::Corrupt(format!(
                    "wal segment {path:?} starts at lsn {} but its \
                     predecessor ends at lsn {}",
                    scanned.base, prev.end
                )));
            }
            let end = scanned.base + scanned.records.len() as u64;
            records.extend((scanned.base..).zip(scanned.records));
            good_end = scanned.good_end;
            sealed.push(Sealed {
                base: scanned.base,
                end,
                path: path.clone(),
            });
        }
        let (active_seq, _) = segments.pop().expect("segments are non-empty");
        let Sealed {
            base,
            end,
            path: active_path,
        } = sealed.pop().expect("segments are non-empty");
        // Truncate the torn tail so appends resume after the last sealed
        // batch.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&active_path)?;
        file.set_len(good_end)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;

        let first_base = sealed.first().map_or(base, |s| s.base);
        if checkpoint_lsn < first_base {
            return Err(StorageError::Corrupt(format!(
                "wal starts at lsn {first_base}, after the catalog checkpoint at \
                 lsn {checkpoint_lsn}: records needed for recovery are gone"
            )));
        }
        if checkpoint_lsn > end {
            return Err(StorageError::Corrupt(format!(
                "wal ends at lsn {end}, before the catalog checkpoint at lsn \
                 {checkpoint_lsn}: the log is older than the data file"
            )));
        }
        let wal = Wal {
            config,
            core: Mutex::new(Core {
                next_lsn: end,
                pending: VecDeque::new(),
                pending_first: end,
                flushing: false,
                durable: end,
                error: None,
            }),
            flushed: Condvar::new(),
            io: Mutex::new(IoState {
                dir,
                prefix: name,
                file,
                active_seq,
                active_path,
                active_base: base,
                active_records: end - base,
                active_bytes: good_end,
                sized: good_end,
                unsynced: false,
                sealed,
                syncs: 0,
                sync_nanos: 0,
                written: 0,
            }),
        };
        Ok((wal, records))
    }

    /// Queues a record and returns its LSN **without waiting for
    /// durability**.  The caller must [`Wal::wait_durable`] on the returned
    /// LSN before acknowledging the write — but may (and, for group commit
    /// to batch, should) release its own locks in between.
    pub fn submit(&self, record: &WalRecord) -> StorageResult<Lsn> {
        self.submit_frame(Frame::of(record))
    }

    /// [`Wal::submit`] for a record already framed, such as an
    /// [`InsertFrame`](crate::InsertFrame) built row by row.  The submitter
    /// that fills the queue writes that batch out, sealed but unsynced.
    pub fn submit_frame(&self, frame: Frame) -> StorageResult<Lsn> {
        let mut core = self.core.lock().expect("wal core mutex");
        poisoned(&core)?;
        let lsn = core.next_lsn;
        if core.pending.is_empty() {
            core.pending_first = lsn;
        }
        core.pending.push_back(frame);
        core.next_lsn += 1;
        if core.pending.len() >= MAX_BATCH && !core.flushing {
            poisoned(&self.flush(core, false))?;
        }
        Ok(lsn)
    }

    /// Blocks until every record up to **and including** `lsn` is on stable
    /// storage (or a write or sync has failed, in which case the failure is
    /// returned — the record's durability is then unknown).  While the
    /// record is not durable and no flush runs, the caller leads one.
    pub fn wait_durable(&self, lsn: Lsn) -> StorageResult<()> {
        let mut core = self.core.lock().expect("wal core mutex");
        if lsn >= core.next_lsn {
            return Err(io_err(format!("wal lsn {lsn} was never submitted")));
        }
        loop {
            poisoned(&core)?;
            if core.durable > lsn {
                return Ok(());
            }
            core = if core.flushing {
                self.flushed.wait(core).expect("wal core mutex")
            } else {
                self.flush(core, true)
            };
        }
    }

    /// [`Wal::submit`] + [`Wal::wait_durable`]: append one record and block
    /// until it is on stable storage.
    pub fn append(&self, record: &WalRecord) -> StorageResult<Lsn> {
        let lsn = self.submit(record)?;
        self.wait_durable(lsn)?;
        Ok(lsn)
    }

    /// Takes the write path and writes up to `MAX_BATCH` queued frames as
    /// one sealed batch; with `sync` it then syncs the segment (rotating
    /// first when the batch would pass `segment_bytes`) and publishes
    /// everything written as durable.  Called holding `core` with no flush
    /// running; the lock is let go across the I/O and held again on return,
    /// with every waiter woken.  An I/O error poisons the log.
    fn flush<'a>(&'a self, mut core: MutexGuard<'a, Core>, sync: bool) -> MutexGuard<'a, Core> {
        let take = core.pending.len().min(MAX_BATCH);
        let frames: Vec<Frame> = core.pending.drain(..take).collect();
        let first = core.pending_first;
        core.pending_first += take as u64;
        core.flushing = true;
        drop(core);

        let result = {
            let mut io = self.io.lock().expect("wal io mutex");
            let over_budget = sync
                && io.active_records > 0
                && io.active_bytes + frames_len(&frames) > self.config.segment_bytes;
            let opened = if over_budget {
                seal_and_open(&mut io, first)
            } else {
                Ok(())
            };
            opened
                .and_then(|()| write_batch(&mut io, &frames, sync))
                .map(|()| io.active_base + io.active_records)
        };
        // Written: the frames go before their writers wake.
        drop(frames);
        let mut core = self.core.lock().expect("wal core mutex");
        core.flushing = false;
        match result {
            Ok(end) if sync => core.durable = core.durable.max(end),
            Ok(_) => {}
            Err(e) => {
                core.error.get_or_insert(format!("wal flush failed: {e}"));
            }
        }
        self.flushed.notify_all();
        core
    }

    /// Seals the active segment and starts a fresh one, returning the new
    /// segment's base LSN (the **cut**): every record below it is durable in
    /// sealed segments when this returns, and every record at or above it
    /// lands in the new segment.  The checkpoint protocol calls this first,
    /// persists a catalog claiming `checkpoint_lsn = cut`, and then
    /// [`Wal::prune`]s the sealed segments the catalog made redundant.
    pub fn rotate(&self) -> StorageResult<Lsn> {
        let mut core = self.core.lock().expect("wal core mutex");
        while core.flushing {
            core = self.flushed.wait(core).expect("wal core mutex");
        }
        poisoned(&core)?;
        let frames: Vec<Frame> = core.pending.drain(..).collect();
        let cut = core.next_lsn;
        core.pending_first = cut;
        core.flushing = true;
        drop(core);

        let result = (|| -> StorageResult<()> {
            let mut io = self.io.lock().expect("wal io mutex");
            debug_assert_eq!(
                io.active_base + io.active_records + frames.len() as u64,
                cut
            );
            write_batch(&mut io, &frames, !frames.is_empty())?;
            if io.active_records > 0 {
                seal_and_open(&mut io, cut)?;
            }
            Ok(())
        })();

        let mut core = self.core.lock().expect("wal core mutex");
        core.flushing = false;
        match &result {
            Ok(()) => core.durable = core.durable.max(cut),
            Err(e) => {
                core.error
                    .get_or_insert(format!("wal rotation failed: {e}"));
            }
        }
        self.flushed.notify_all();
        result.map(|()| cut)
    }

    /// Deletes sealed segments whose every record is below `upto` (their
    /// contents are fully reflected in a durable checkpoint).  The active
    /// segment is never touched.
    pub fn prune(&self, upto: Lsn) -> StorageResult<()> {
        let mut io = self.io.lock().expect("wal io mutex");
        let mut err = None;
        io.sealed.retain(|seg| {
            if seg.end <= upto && err.is_none() {
                match std::fs::remove_file(&seg.path) {
                    Ok(()) => false,
                    Err(e) => {
                        err = Some(e.into());
                        true
                    }
                }
            } else {
                true
            }
        });
        sync_dir(&io.dir);
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The next LSN to be assigned (= records ever submitted).
    pub fn next_lsn(&self) -> Lsn {
        self.core.lock().expect("wal core mutex").next_lsn
    }

    /// Everything below this LSN is on stable storage.
    pub fn durable_lsn(&self) -> Lsn {
        self.core.lock().expect("wal core mutex").durable
    }

    /// Number of batch `fsync`s issued since open — with group commit this
    /// stays well below the number of records; `Database::metrics()`
    /// reports it as `wal.syncs`.
    pub fn sync_count(&self) -> u64 {
        self.io.lock().expect("wal io mutex").syncs
    }

    /// Nanoseconds spent since open inside batch writes and their `fsync`s,
    /// summed: the I/O share of the commit wait, which `Database::metrics()`
    /// reports as `wal.sync_nanos`.
    pub fn sync_nanos(&self) -> u64 {
        self.io.lock().expect("wal io mutex").sync_nanos
    }

    /// Number of records written since open.
    pub fn written_count(&self) -> u64 {
        self.io.lock().expect("wal io mutex").written
    }

    /// Number of live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.io.lock().expect("wal io mutex").sealed.len() + 1
    }

    /// Test hook: where the active segment's last seal ends, in bytes —
    /// the log's end, which the segment file's length runs past once the
    /// segment is sized ahead.
    #[doc(hidden)]
    pub fn active_end_for_test(&self) -> u64 {
        self.io.lock().expect("wal io mutex").active_bytes
    }

    /// `Ok` while the log can still accept and persist records.  After any
    /// write or sync failure the log is **poisoned** — every subsequent
    /// `submit`/`append` fails, and this returns the original failure.
    /// Callers that serve reads from state whose durability the poisoned
    /// log can no longer vouch for check this and fail fast instead of
    /// serving possibly-non-durable data; the recovery path is to reopen
    /// the database and replay.
    pub fn health(&self) -> StorageResult<()> {
        poisoned(&self.core.lock().expect("wal core mutex"))
    }

    /// Test hook: poisons the log as an I/O failure in a flush would, so
    /// failure-handling above the WAL can be exercised without a real disk
    /// fault.
    #[doc(hidden)]
    pub fn fail_for_test(&self, msg: &str) {
        let mut core = self.core.lock().expect("wal core mutex");
        core.error.get_or_insert_with(|| msg.to_string());
        self.flushed.notify_all();
    }
}

/// The log's poison, as the error every refused call returns.
fn poisoned(core: &Core) -> StorageResult<()> {
    match &core.error {
        Some(msg) => Err(io_err(msg.clone())),
        None => Ok(()),
    }
}

impl Drop for Wal {
    /// Writes whatever is still queued, syncs it and cuts the active
    /// segment back to its last seal: a cleanly closed segment ends exactly
    /// at its last seal.
    fn drop(&mut self) {
        let mut core = self.core.lock().expect("wal core mutex");
        while !core.pending.is_empty() && core.error.is_none() {
            core = self.flush(core, false);
        }
        let io = self.io.lock().expect("wal io mutex");
        if core.error.is_none() && (io.unsynced || io.sized > io.active_bytes) {
            let _ = io.file.set_len(io.active_bytes);
            let _ = io.file.sync_data();
        }
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("next_lsn", &self.next_lsn())
            .field("durable_lsn", &self.durable_lsn())
            .field("segments", &self.segment_count())
            .finish()
    }
}

fn split_prefix(prefix: &Path) -> StorageResult<(PathBuf, String)> {
    let dir = prefix
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let dir = if dir.as_os_str().is_empty() {
        PathBuf::from(".")
    } else {
        dir
    };
    let name = prefix
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io_err(format!("wal prefix {prefix:?} has no file name")))?;
    Ok((dir, name.to_string()))
}

/// Appends `frames` to the active segment as one sealed batch — every
/// record frame, then the batch seal, in one vectored write, the frames
/// written where they lie — and with `sync` then issues one `fsync`.  A
/// batch that would pass the file's length first extends it by `SIZE_STEP`
/// past the batch's end, inside the same sync.  Replay ignores records past
/// the last valid seal, so a crash anywhere before the sync loses the batch
/// as a unit — never a prefix of it.
fn write_batch(io: &mut IoState, frames: &[Frame], sync: bool) -> StorageResult<()> {
    let started = Instant::now();
    if !frames.is_empty() {
        let batch_crc = frames
            .iter()
            .fold(u32::MAX, |crc, frame| crc32_update(crc, frame.bytes()));
        let seal = Seal {
            records: frames.len() as u32,
            batch_crc: !batch_crc,
        }
        .to_bytes();
        let end = io.active_bytes + frames_len(frames) + seal.len() as u64;
        if end > io.sized {
            io.file.set_len(end + SIZE_STEP)?;
            io.sized = end + SIZE_STEP;
        }
        let mut slices: Vec<IoSlice<'_>> = frames
            .iter()
            .map(|frame| IoSlice::new(frame.bytes()))
            .chain(std::iter::once(IoSlice::new(&seal)))
            .collect();
        write_all_vectored(&mut io.file, &mut slices)?;
        io.active_records += frames.len() as u64;
        io.active_bytes = end;
        io.written += frames.len() as u64;
        io.unsynced = true;
    }
    if sync {
        io.file.sync_data()?;
        io.syncs += 1;
        io.unsynced = false;
    }
    io.sync_nanos += started.elapsed().as_nanos() as u64;
    Ok(())
}

/// Bytes in `frames`.
fn frames_len(frames: &[Frame]) -> u64 {
    frames.iter().map(|frame| frame.bytes().len() as u64).sum()
}

/// Writes every byte of `slices`: one vectored `write` when the kernel
/// takes them all (a batch is one system call), another for whatever a
/// short write left.
fn write_all_vectored(out: &mut impl Write, mut slices: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !slices.is_empty() {
        match out.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write a whole wal batch",
                ))
            }
            Ok(written) => IoSlice::advance_slices(&mut slices, written),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Seals the active segment at `end` — cut back to its last seal and
/// synced, so a sealed segment ends exactly at its last seal — and opens a
/// fresh one based there.
fn seal_and_open(io: &mut IoState, end: Lsn) -> StorageResult<()> {
    debug_assert_eq!(io.active_base + io.active_records, end);
    io.file.set_len(io.active_bytes)?;
    io.file.sync_data()?;
    let (file, path) = create_segment(&io.dir, &io.prefix, io.active_seq + 1, end)?;
    let old_path = std::mem::replace(&mut io.active_path, path);
    io.sealed.push(Sealed {
        base: io.active_base,
        end,
        path: old_path,
    });
    io.file = file;
    io.active_seq += 1;
    io.active_base = end;
    io.active_records = 0;
    io.active_bytes = HEADER_BYTES;
    io.sized = HEADER_BYTES;
    io.unsynced = false;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer taking at most `limit` bytes a call, counting its calls.
    struct Short {
        limit: usize,
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Short {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            for buf in bufs {
                let room = self.limit - (self.out.len() - before);
                self.out.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A batch is one vectored write when the writer takes it whole, and
    /// every byte in order when it writes short; a writer that takes
    /// nothing is an error, not a spin.
    #[test]
    fn a_batch_is_one_write_unless_the_write_is_short() {
        let parts: [&[u8]; 3] = [b"frame one|", b"frame two, longer|", b"seal"];
        let whole = parts.concat();
        for (limit, calls) in [
            (usize::MAX, 1),
            (whole.len(), 1),
            (7, whole.len().div_ceil(7)),
        ] {
            let mut short = Short {
                limit,
                out: Vec::new(),
                calls: 0,
            };
            let mut slices = parts.map(IoSlice::new);
            write_all_vectored(&mut short, &mut slices).unwrap();
            assert_eq!(short.out, whole, "limit {limit}");
            assert_eq!(short.calls, calls, "limit {limit}");
        }
        let mut stuck = Short {
            limit: 0,
            out: Vec::new(),
            calls: 0,
        };
        let err = write_all_vectored(&mut stuck, &mut parts.map(IoSlice::new)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn an_io_error_in_the_leading_writer_fails_every_waiter_and_poisons_the_log() {
        let dir = std::env::temp_dir().join(format!("spgist-wal-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("db.wal");
        let record = |row| WalRecord::Insert {
            table: "t".into(),
            row,
            datum: vec![7; 12],
            txn: crate::AUTOCOMMIT,
        };
        let wal = Wal::create(&prefix, WalConfig::default()).unwrap();
        wal.append(&record(0)).unwrap();
        // A read-only handle in place of the segment's: the next batch write
        // fails with a real I/O error in whichever waiter leads it.
        wal.io.lock().unwrap().file = File::open(segment_path(&dir, "db.wal", 1)).unwrap();
        let lsns: Vec<Lsn> = (1..9)
            .map(|row| wal.submit(&record(row)).unwrap())
            .collect();
        std::thread::scope(|scope| {
            let wal = &wal;
            let waiters: Vec<_> = lsns
                .iter()
                .map(|&lsn| scope.spawn(move || wal.wait_durable(lsn)))
                .collect();
            for waiter in waiters {
                assert!(waiter.join().unwrap().is_err(), "a waiter was acknowledged");
            }
        });
        let poison = wal.health().unwrap_err().to_string();
        assert!(poison.contains("wal flush failed"), "{poison}");
        assert!(
            wal.submit(&record(9)).is_err(),
            "a poisoned log accepts nothing"
        );
        assert_eq!(wal.durable_lsn(), 1);
        drop(wal);
        let (wal, records) = Wal::open(&prefix, WalConfig::default(), 0).unwrap();
        assert_eq!(records.len(), 1, "only the acknowledged record");
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
