//! Storage substrate for the SP-GiST reproduction.
//!
//! The paper realizes SP-GiST inside PostgreSQL and relies on the PostgreSQL
//! storage manager and buffer manager for "the allocation and retrieval of
//! disk pages" (Section 4.2).  This crate provides the equivalent substrate
//! from scratch:
//!
//! * [`page`] — an 8 KiB slotted page, the unit of disk transfer,
//! * [`pager`] — page allocation and retrieval ([`pager::FilePager`] backed by a
//!   file, [`pager::MemPager`] for tests and fast experiments),
//! * [`buffer`] — a buffer pool with pin/unpin semantics, SIEVE eviction
//!   steered by scan hints ([`replacement`]) and I/O accounting
//!   ([`buffer::IoStats`]),
//! * [`heap`] — a heap file (PostgreSQL "heap access" / sequential scan),
//! * [`codec`] — a tiny length-prefixed binary codec used by every access
//!   method in the workspace to lay records out on pages.
//!
//! All access methods in the workspace (SP-GiST trees, the B+-tree and R-tree
//! baselines, heap files) perform their page reads and writes through
//! [`buffer::BufferPool`], so logical and physical page I/O is counted
//! uniformly — the experiment harness reports those counters next to
//! wall-clock time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod codec;
pub mod crc;
pub mod epoch;
pub mod error;
pub mod fault;
pub mod heap;
pub mod journal;
pub mod page;
pub mod pager;
pub mod replacement;

pub use buffer::{BufferPool, BufferPoolConfig, DirtyPageSnapshot, IoStats};
pub use codec::Codec;
pub use crc::crc32;
pub use epoch::{ConcurrencyStats, EpochManager, EpochPin, LatchSet, LatchTable, RetiredItem};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultPager, SyncFault, WriteFault};
pub use heap::{HeapFile, RecordId};
pub use journal::CheckpointStats;
pub use page::{Page, PageId, SlotId, MAX_RECORD_SIZE, PAGE_SIZE};
pub use pager::{FilePager, MemPager, Pager};
pub use replacement::AccessHint;
