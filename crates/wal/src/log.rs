//! The append-only segmented log and its group-commit flusher.
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
//! Every group-committed batch (the set of frames covered by one `fsync`)
//! is terminated by a **batch seal**, distinguished from a record frame by
//! a zero length field:
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
//! # Torn tails vs. corruption
//!
//! Only the **last** segment can legitimately end mid-batch (the process
//! died between `write` and `fsync`): on open, the first short frame,
//! CRC-failing frame, or missing/invalid seal in the last segment ends the
//! log and the file is truncated back to the end of the last *sealed
//! batch*.  Sealed segments are fully synced before their successor is
//! created, so damage there — including an unsealed trailing batch — is
//! real corruption and fails the open.  A record whose CRC matches but
//! whose payload does not decode is corruption everywhere — a torn write
//! cannot produce a matching CRC.
//!
//! # Group commit
//!
//! Writers [`Wal::submit`] a record (cheap: an in-memory append under a
//! mutex, returning the assigned LSN) and then [`Wal::wait_durable`] on
//! that LSN.  A dedicated flusher thread drains the submission queue,
//! writes one batch, issues **one** `fsync` for the whole batch, and wakes
//! every waiter the sync covered.  It syncs only when someone waits on a
//! queued record (or the queue reaches a full batch, or the log rotates or
//! shuts down): records submitted and not awaited — a transaction's
//! statements ahead of its `CommitTxn` — buy no `fsync` of their own.
//! The flusher never holds a batch open to let it fill: it syncs as soon
//! as it gets the queue, and batching arises from the commits that arrive
//! while an `fsync` is in flight and queue up for the next one, at most
//! `MAX_BATCH` (64) records per sync.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use spgist_storage::crc::crc32;
use spgist_storage::{Codec, StorageError, StorageResult};

use crate::record::{Lsn, WalRecord};

/// Magic marker leading every WAL segment file (`"SPGW"`).
const SEGMENT_MAGIC: u32 = 0x5350_4757;
/// Segment format version.  Version 2 added the batch seal; version 3 added
/// transaction ids on DML records plus the `BeginTxn`/`CommitTxn`/`AbortTxn`
/// control records.  Older segments are refused rather than silently
/// replayed: v1 lacks torn-batch detection and v2 records decode to a
/// different layout (no txn field), so recovery could not tell committed
/// work from a loser transaction's.
const SEGMENT_VERSION: u32 = 3;
/// Bytes in a segment header.
const HEADER_BYTES: u64 = 16;
/// Bytes in a record frame header (`payload_len`, `crc`).
const FRAME_HEADER_BYTES: usize = 8;
/// Magic marker in a batch-seal frame (`"SPGS"`), following the zero
/// length field that tells it apart from a record frame.
const SEAL_MAGIC: u32 = 0x5350_4753;
/// Bytes in a batch seal: zero length, magic, record count, batch CRC,
/// seal CRC.
const SEAL_BYTES: usize = 20;
/// Sanity cap on a single record payload (a decoded `insert_many` batch of
/// this size would already be absurd); larger lengths are treated as
/// damage, not as records.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Most records covered by one `fsync`; a queue this long is flushed even
/// with nobody waiting, so the submission queue stays bounded.
const MAX_BATCH: usize = 64;

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes (checked at batch boundaries, so segments overshoot by at most
    /// one batch).
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 << 20,
        }
    }
}

/// Submission queue: what writers have handed over but the flusher has not
/// yet taken.
struct Core {
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Encoded frames awaiting write, oldest first.
    pending: VecDeque<Vec<u8>>,
    /// LSN of `pending.front()` (meaningless while `pending` is empty).
    pending_first: Lsn,
    /// One past the highest LSN a [`Wal::wait_durable`] caller has asked
    /// for: the flusher syncs on its own account only while a record below
    /// this is still queued.
    wanted: Lsn,
    /// True while one thread (flusher or a rotation) owns the write path;
    /// the queue must not be drained by anyone else until it clears.
    flushing: bool,
    /// Set by [`Wal::drop`] (clean drain) or by the flusher on I/O error
    /// (poison): no further submissions are accepted.
    shutdown: bool,
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
    active_bytes: u64,
    sealed: Vec<Sealed>,
    /// `fsync`s issued since open (one per group).
    syncs: u64,
    /// Records written since open.
    written: u64,
}

/// What `wait_durable` blocks on.
struct DurableState {
    lsn: Lsn,
    /// Poison: the flusher hit an I/O error; every current and future
    /// waiter gets this instead of an acknowledgment.
    error: Option<String>,
}

struct Shared {
    config: WalConfig,
    core: Mutex<Core>,
    /// Signaled on submit, on shutdown, and when `flushing` clears.
    work: Condvar,
    io: Mutex<IoState>,
    durable: Mutex<DurableState>,
    durable_cv: Condvar,
}

/// The write-ahead log: see the module docs for format and protocol.
pub struct Wal {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

fn io_err(msg: String) -> StorageError {
    StorageError::Io(std::io::Error::other(msg))
}

/// Best-effort directory sync so segment creation/removal survives a crash
/// (on platforms where directories cannot be opened this is a no-op).
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
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

fn frame(record: &WalRecord) -> Vec<u8> {
    let payload = record.to_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn create_segment(dir: &Path, prefix: &str, seq: u64, base: Lsn) -> StorageResult<(File, PathBuf)> {
    let path = segment_path(dir, prefix, seq);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    let mut header = [0u8; HEADER_BYTES as usize];
    header[0..4].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&base.to_le_bytes());
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
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let corrupt = |msg: String| StorageError::Corrupt(format!("wal segment {path:?}: {msg}"));
    if bytes.len() < HEADER_BYTES as usize {
        return Err(corrupt(format!("short header ({} bytes)", bytes.len())));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("length checked"));
    if magic != SEGMENT_MAGIC {
        return Err(corrupt("bad magic (not a WAL segment)".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("length checked"));
    if version != SEGMENT_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let base = u64::from_le_bytes(bytes[8..16].try_into().expect("length checked"));

    let mut records = Vec::new();
    // Records decoded since the last seal: committed to `records` only once
    // their batch seal checks out, dropped as a unit otherwise.
    let mut pending: Vec<WalRecord> = Vec::new();
    let mut pos = HEADER_BYTES as usize;
    let mut batch_start = pos;
    let mut good_end = pos;
    loop {
        if pos == bytes.len() {
            break;
        }
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER_BYTES) else {
            // Short frame header: the torn tail of the last segment,
            // corruption anywhere else.
            if is_last {
                break;
            }
            return Err(corrupt(format!(
                "frame at byte {pos} is torn in a sealed segment"
            )));
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("length checked"));
        if len == 0 {
            // Batch seal.  Valid only when its own CRC holds *and* it
            // vouches for exactly the frames written since the previous
            // seal — a seal that survived a crash ahead of its batch's
            // record bytes must not commit them.
            let sealed = (|| {
                let seal = bytes.get(pos..pos + SEAL_BYTES)?;
                let magic = u32::from_le_bytes(seal[4..8].try_into().expect("length checked"));
                let count = u32::from_le_bytes(seal[8..12].try_into().expect("length checked"));
                let batch_crc =
                    u32::from_le_bytes(seal[12..16].try_into().expect("length checked"));
                let seal_crc = u32::from_le_bytes(seal[16..20].try_into().expect("length checked"));
                (magic == SEAL_MAGIC
                    && crc32(&seal[0..16]) == seal_crc
                    && count as usize == pending.len()
                    && batch_crc == crc32(&bytes[batch_start..pos]))
                .then_some(())
            })();
            if sealed.is_none() {
                if is_last {
                    break;
                }
                return Err(corrupt(format!(
                    "batch seal at byte {pos} is torn in a sealed segment"
                )));
            }
            records.append(&mut pending);
            pos += SEAL_BYTES;
            batch_start = pos;
            good_end = pos;
            continue;
        }
        // A record frame that does not fully check out: the torn tail of
        // the last segment, corruption anywhere else.
        let whole = (|| {
            if len > MAX_PAYLOAD {
                return None;
            }
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("length checked"));
            let payload =
                bytes.get(pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len as usize)?;
            (crc32(payload) == crc).then_some(payload)
        })();
        let Some(payload) = whole else {
            if is_last {
                break;
            }
            return Err(corrupt(format!(
                "record at byte {pos} is torn in a sealed segment"
            )));
        };
        // A matching CRC over bytes that do not decode is not a torn write.
        let record = WalRecord::from_bytes(payload)
            .map_err(|e| corrupt(format!("record at byte {pos} does not decode: {e}")))?;
        pending.push(record);
        pos += FRAME_HEADER_BYTES + payload.len();
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
        good_end: good_end as u64,
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
        let (file, path) = create_segment(&dir, &name, 1, 0)?;
        Ok(Self::start(
            config,
            dir,
            name,
            file,
            path,
            1,
            0,
            0,
            HEADER_BYTES,
            Vec::new(),
            0,
        ))
    }

    /// Opens the log at `prefix`, scanning every segment, truncating a torn
    /// tail, and returning the surviving records as `(lsn, record)` pairs
    /// in LSN order.
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
        if segments.is_empty() {
            if checkpoint_lsn != 0 {
                return Err(StorageError::Corrupt(format!(
                    "write-ahead log missing: the catalog checkpoint is at lsn \
                     {checkpoint_lsn} but no {name}.* segments exist"
                )));
            }
            let (file, path) = create_segment(&dir, &name, 1, 0)?;
            let wal = Self::start(
                config,
                dir,
                name,
                file,
                path,
                1,
                0,
                0,
                HEADER_BYTES,
                Vec::new(),
                0,
            );
            return Ok((wal, Vec::new()));
        }

        // A crash between creating a new segment and syncing its header can
        // leave a headerless last file: drop it and recover from the one
        // before.  When it is the *only* file, the crash happened during
        // the very first `Wal::create` — nothing was ever logged, so with
        // nothing checkpointed the log is simply empty and fresh.  (With a
        // nonzero checkpoint a lone sub-header file really is missing
        // acknowledged records; fall through and let `scan_segment` report
        // it as corrupt.)
        {
            let (_, last_path) = segments.last().expect("non-empty");
            let len = std::fs::metadata(last_path)?.len();
            if len < HEADER_BYTES {
                if segments.len() > 1 {
                    std::fs::remove_file(last_path)?;
                    sync_dir(&dir);
                    segments.pop();
                } else if checkpoint_lsn == 0 {
                    std::fs::remove_file(last_path)?;
                    sync_dir(&dir);
                    let (file, path) = create_segment(&dir, &name, 1, 0)?;
                    let wal = Self::start(
                        config,
                        dir,
                        name,
                        file,
                        path,
                        1,
                        0,
                        0,
                        HEADER_BYTES,
                        Vec::new(),
                        0,
                    );
                    return Ok((wal, Vec::new()));
                }
            }
        }

        let mut all = Vec::new();
        let mut sealed = Vec::new();
        let mut expected_base: Option<Lsn> = None;
        let mut active = None;
        let last_idx = segments.len() - 1;
        for (idx, (seq, path)) in segments.iter().enumerate() {
            let is_last = idx == last_idx;
            let scanned = scan_segment(path, is_last)?;
            if let Some(expected) = expected_base {
                if scanned.base != expected {
                    return Err(StorageError::Corrupt(format!(
                        "wal segment {path:?} starts at lsn {} but its \
                         predecessor ends at lsn {expected}",
                        scanned.base
                    )));
                }
            }
            let end = scanned.base + scanned.records.len() as u64;
            for (i, record) in scanned.records.into_iter().enumerate() {
                all.push((scanned.base + i as u64, record));
            }
            expected_base = Some(end);
            if is_last {
                // Truncate the torn tail so appends resume after the last
                // whole record.
                let mut file = OpenOptions::new().read(true).write(true).open(path)?;
                file.set_len(scanned.good_end)?;
                file.sync_all()?;
                file.seek(SeekFrom::End(0))?;
                active = Some((
                    file,
                    path.clone(),
                    *seq,
                    scanned.base,
                    end - scanned.base,
                    scanned.good_end,
                ));
            } else {
                sealed.push(Sealed {
                    base: scanned.base,
                    end,
                    path: path.clone(),
                });
            }
        }
        let (file, path, seq, base, records, bytes) = active.expect("segments are non-empty");
        let end = base + records;
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
        let wal = Self::start(
            config, dir, name, file, path, seq, base, records, bytes, sealed, end,
        );
        Ok((wal, all))
    }

    #[allow(clippy::too_many_arguments)]
    fn start(
        config: WalConfig,
        dir: PathBuf,
        prefix: String,
        file: File,
        active_path: PathBuf,
        active_seq: u64,
        active_base: Lsn,
        active_records: u64,
        active_bytes: u64,
        sealed: Vec<Sealed>,
        next_lsn: Lsn,
    ) -> Wal {
        let shared = Arc::new(Shared {
            config,
            core: Mutex::new(Core {
                next_lsn,
                pending: VecDeque::new(),
                pending_first: next_lsn,
                wanted: next_lsn,
                flushing: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            io: Mutex::new(IoState {
                dir,
                prefix,
                file,
                active_seq,
                active_path,
                active_base,
                active_records,
                active_bytes,
                sealed,
                syncs: 0,
                written: 0,
            }),
            durable: Mutex::new(DurableState {
                lsn: next_lsn,
                error: None,
            }),
            durable_cv: Condvar::new(),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop(&shared))
                .expect("spawning the wal flusher thread")
        };
        Wal {
            shared,
            flusher: Mutex::new(Some(flusher)),
        }
    }

    /// Hands a record to the flusher and returns its LSN **without waiting
    /// for durability**.  The caller must [`Wal::wait_durable`] on the
    /// returned LSN before acknowledging the write — but may (and, for
    /// group commit to batch, should) release its own locks in between.
    pub fn submit(&self, record: &WalRecord) -> StorageResult<Lsn> {
        let bytes = frame(record);
        let mut core = self.shared.core.lock().expect("wal core mutex");
        if core.shutdown {
            drop(core);
            return Err(self
                .poison()
                .unwrap_or_else(|| io_err("write-ahead log is shut down".into())));
        }
        let lsn = core.next_lsn;
        if core.pending.is_empty() {
            core.pending_first = lsn;
        }
        core.pending.push_back(bytes);
        core.next_lsn += 1;
        drop(core);
        self.shared.work.notify_all();
        Ok(lsn)
    }

    /// Blocks until every record up to **and including** `lsn` is on stable
    /// storage (or the flusher has failed, in which case the failure is
    /// returned — the record's durability is then unknown).
    pub fn wait_durable(&self, lsn: Lsn) -> StorageResult<()> {
        let mut durable = self.shared.durable.lock().expect("wal durable mutex");
        if durable.error.is_none() && durable.lsn <= lsn {
            // Tell the flusher someone is waiting: submitted records it has
            // no waiter for stay queued until one arrives.
            drop(durable);
            let mut core = self.shared.core.lock().expect("wal core mutex");
            core.wanted = core.wanted.max(lsn + 1);
            drop(core);
            self.shared.work.notify_all();
            durable = self.shared.durable.lock().expect("wal durable mutex");
        }
        loop {
            if let Some(msg) = &durable.error {
                return Err(io_err(msg.clone()));
            }
            if durable.lsn > lsn {
                return Ok(());
            }
            durable = self
                .shared
                .durable_cv
                .wait(durable)
                .expect("wal durable mutex");
        }
    }

    /// [`Wal::submit`] + [`Wal::wait_durable`]: append one record and block
    /// until it is on stable storage.
    pub fn append(&self, record: &WalRecord) -> StorageResult<Lsn> {
        let lsn = self.submit(record)?;
        self.wait_durable(lsn)?;
        Ok(lsn)
    }

    /// Seals the active segment and starts a fresh one, returning the new
    /// segment's base LSN (the **cut**): every record below it is durable in
    /// sealed segments when this returns, and every record at or above it
    /// lands in the new segment.  The checkpoint protocol calls this first,
    /// persists a catalog claiming `checkpoint_lsn = cut`, and then
    /// [`Wal::prune`]s the sealed segments the catalog made redundant.
    pub fn rotate(&self) -> StorageResult<Lsn> {
        let mut core = self.shared.core.lock().expect("wal core mutex");
        while core.flushing {
            core = self.shared.work.wait(core).expect("wal core mutex");
        }
        if core.shutdown {
            drop(core);
            return Err(self
                .poison()
                .unwrap_or_else(|| io_err("write-ahead log is shut down".into())));
        }
        let frames: Vec<Vec<u8>> = core.pending.drain(..).collect();
        let cut = core.next_lsn;
        core.pending_first = cut;
        core.flushing = true;
        drop(core);

        let result = (|| -> StorageResult<()> {
            let mut io = self.shared.io.lock().expect("wal io mutex");
            debug_assert_eq!(
                io.active_base + io.active_records + frames.len() as u64,
                cut
            );
            if !frames.is_empty() {
                write_frames(&mut io, &frames)?;
            }
            if io.active_records > 0 {
                seal_and_open(&mut io, cut)?;
            }
            Ok(())
        })();

        match result {
            Ok(()) => {
                self.publish_durable(cut);
                let mut core = self.shared.core.lock().expect("wal core mutex");
                core.flushing = false;
                drop(core);
                self.shared.work.notify_all();
                Ok(cut)
            }
            Err(e) => {
                self.fail(format!("wal rotation failed: {e}"));
                Err(e)
            }
        }
    }

    /// Deletes sealed segments whose every record is below `upto` (their
    /// contents are fully reflected in a durable checkpoint).  The active
    /// segment is never touched.
    pub fn prune(&self, upto: Lsn) -> StorageResult<()> {
        let mut io = self.shared.io.lock().expect("wal io mutex");
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
        self.shared.core.lock().expect("wal core mutex").next_lsn
    }

    /// Everything below this LSN is on stable storage.
    pub fn durable_lsn(&self) -> Lsn {
        self.shared.durable.lock().expect("wal durable mutex").lsn
    }

    /// Number of `fsync`s issued since open — with group commit this stays
    /// well below the number of records, and the `wal` experiment reports
    /// the ratio.
    pub fn sync_count(&self) -> u64 {
        self.shared.io.lock().expect("wal io mutex").syncs
    }

    /// Number of records written since open.
    pub fn written_count(&self) -> u64 {
        self.shared.io.lock().expect("wal io mutex").written
    }

    /// Number of live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.shared.io.lock().expect("wal io mutex").sealed.len() + 1
    }

    fn publish_durable(&self, lsn: Lsn) {
        let mut durable = self.shared.durable.lock().expect("wal durable mutex");
        if lsn > durable.lsn {
            durable.lsn = lsn;
        }
        drop(durable);
        self.shared.durable_cv.notify_all();
    }

    /// `Ok` while the log can still accept and persist records.  After any
    /// flusher I/O failure the log is **poisoned** — every subsequent
    /// `submit`/`append` fails, and this returns the original failure.
    /// Callers that serve reads from state whose durability the poisoned
    /// log can no longer vouch for check this and fail fast instead of
    /// serving possibly-non-durable data; the recovery path is to reopen
    /// the database and replay.
    pub fn health(&self) -> StorageResult<()> {
        match self.poison() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Test hook: poisons the log as an I/O failure in the flusher would,
    /// so failure-handling above the WAL can be exercised without a real
    /// disk fault.
    #[doc(hidden)]
    pub fn fail_for_test(&self, msg: &str) {
        self.fail(msg.to_string());
    }

    fn poison(&self) -> Option<StorageError> {
        let durable = self.shared.durable.lock().expect("wal durable mutex");
        durable.error.as_ref().map(|msg| io_err(msg.clone()))
    }

    fn fail(&self, msg: String) {
        fail_shared(&self.shared, msg);
    }
}

fn fail_shared(shared: &Shared, msg: String) {
    {
        let mut durable = shared.durable.lock().expect("wal durable mutex");
        if durable.error.is_none() {
            durable.error = Some(msg);
        }
    }
    shared.durable_cv.notify_all();
    {
        let mut core = shared.core.lock().expect("wal core mutex");
        core.shutdown = true;
        core.flushing = false;
    }
    shared.work.notify_all();
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut core = self.shared.core.lock().expect("wal core mutex");
            core.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.flusher.lock().expect("wal flusher handle").take() {
            let _ = handle.join();
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

/// The seal frame closing a group-committed batch: a zero length field (no
/// record frame has one), the seal magic, the record count, a CRC over the
/// batch's frame bytes, and a CRC over the seal's own first 16 bytes.
fn seal_frame(frames: &[Vec<u8>]) -> [u8; SEAL_BYTES] {
    let batch: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
    let mut seal = [0u8; SEAL_BYTES];
    seal[0..4].copy_from_slice(&0u32.to_le_bytes());
    seal[4..8].copy_from_slice(&SEAL_MAGIC.to_le_bytes());
    seal[8..12].copy_from_slice(&(frames.len() as u32).to_le_bytes());
    seal[12..16].copy_from_slice(&crc32(&batch).to_le_bytes());
    let seal_crc = crc32(&seal[0..16]);
    seal[16..20].copy_from_slice(&seal_crc.to_le_bytes());
    seal
}

/// Appends `frames` to the active segment as one sealed batch and syncs
/// it: every record frame, then the batch seal, then a single `fsync`.
/// Replay ignores records past the last valid seal, so a crash anywhere
/// before the sync loses the batch as a unit — never a prefix of it.
fn write_frames(io: &mut IoState, frames: &[Vec<u8>]) -> StorageResult<()> {
    if frames.is_empty() {
        return Ok(());
    }
    let batch_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum::<u64>() + SEAL_BYTES as u64;
    Ok(())
        .and_then(|()| {
            for frame in frames {
                io.file.write_all(frame)?;
            }
            io.file.write_all(&seal_frame(frames))?;
            io.file.sync_data()?;
            Ok(())
        })
        .map(|()| {
            io.active_records += frames.len() as u64;
            io.active_bytes += batch_bytes;
            io.syncs += 1;
            io.written += frames.len() as u64;
        })
}

/// Seals the active segment (already fully synced) at `end` and opens a
/// fresh one based there.
fn seal_and_open(io: &mut IoState, end: Lsn) -> StorageResult<()> {
    debug_assert_eq!(io.active_base + io.active_records, end);
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
    Ok(())
}

/// The dedicated flusher: drains the submission queue in batches when a
/// waiter, a full batch or shutdown calls for it, one `fsync` per batch,
/// and publishes durability to the waiters.
fn flusher_loop(shared: &Shared) {
    loop {
        let mut core = shared.core.lock().expect("wal core mutex");
        // Wait for work (or exit once shut down and drained).
        loop {
            if core.shutdown && core.pending.is_empty() {
                return;
            }
            // A sync is owed only to a waiter (or to a full batch, or to
            // shutdown): a transaction's statements are submitted without
            // waiting and ride along with the sync its commit asks for.
            let due = core.wanted > core.pending_first
                || core.pending.len() >= MAX_BATCH
                || core.shutdown;
            if due && !core.pending.is_empty() && !core.flushing {
                break;
            }
            core = shared.work.wait(core).expect("wal core mutex");
        }
        let take = core.pending.len().min(MAX_BATCH);
        let frames: Vec<Vec<u8>> = core.pending.drain(..take).collect();
        let first = core.pending_first;
        core.pending_first += take as u64;
        core.flushing = true;
        drop(core);

        let end = first + frames.len() as u64;
        let result = {
            let mut io = shared.io.lock().expect("wal io mutex");
            let over_budget = io.active_records > 0
                && io.active_bytes + frames.iter().map(|f| f.len() as u64).sum::<u64>()
                    > shared.config.segment_bytes;
            if over_budget {
                seal_and_open(&mut io, first).and_then(|()| write_frames(&mut io, &frames))
            } else {
                write_frames(&mut io, &frames)
            }
        };
        match result {
            Ok(()) => {
                {
                    let mut durable = shared.durable.lock().expect("wal durable mutex");
                    if end > durable.lsn {
                        durable.lsn = end;
                    }
                }
                shared.durable_cv.notify_all();
                {
                    let mut core = shared.core.lock().expect("wal core mutex");
                    core.flushing = false;
                }
                shared.work.notify_all();
            }
            Err(e) => {
                fail_shared(shared, format!("wal flush failed: {e}"));
                return;
            }
        }
    }
}
