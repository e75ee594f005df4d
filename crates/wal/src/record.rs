//! Logical redo records.
//!
//! The WAL is **logical**: each record names a table-level statement
//! (`INSERT`, `DELETE`, a DDL statement), not page images.  Recovery
//! re-executes the statement against the reopened executor state, which
//! works because the executor's row ids are deterministic — an insert always
//! assigns `rows.len()` — so a redo record carrying its assigned row id can
//! verify it lands exactly where the original did.
//!
//! Key values travel as the executor's own record encoding (opaque
//! `Vec<u8>` here; the catalog layer encodes and decodes them), keeping this
//! crate independent of the datum types above it.
//!
//! Since segment format v3, every DML record also carries the id of its
//! enclosing transaction ([`AUTOCOMMIT`] for bare statements), and three
//! transaction-control records exist: [`WalRecord::BeginTxn`],
//! [`WalRecord::CommitTxn`] (the commit point — a transaction whose
//! `CommitTxn` did not reach disk is a *loser* and none of its statements
//! apply at recovery), and [`WalRecord::AbortTxn`].

use spgist_storage::codec::put_varint;
use spgist_storage::{Codec, StorageError, StorageResult};

use crate::log::{Frame, MAX_PAYLOAD_BYTES};

/// A log sequence number: records are numbered densely from 0 across the
/// whole log, so `lsn` doubles as "number of records ever appended before
/// this one".
pub type Lsn = u64;

/// A transaction id.  Ids are unique among the records that coexist in the
/// log: the executor allocates them from a counter seeded past the largest
/// id surviving in the log at open, so a replayed `CommitTxn` can never
/// adopt statements from a later incarnation.
pub type TxnId = u64;

/// The reserved transaction id for auto-commit statements: a DML record
/// carrying `AUTOCOMMIT` is durable (and replayable) on its own, without a
/// surrounding `BeginTxn`/`CommitTxn` pair.
pub const AUTOCOMMIT: TxnId = 0;

const TAG_INSERT: u8 = 0;
const TAG_INSERT_MANY: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_CREATE_TABLE: u8 = 3;
const TAG_DROP_TABLE: u8 = 4;
const TAG_CREATE_INDEX: u8 = 5;
const TAG_DROP_INDEX: u8 = 6;
const TAG_BEGIN_TXN: u8 = 7;
const TAG_COMMIT_TXN: u8 = 8;
const TAG_ABORT_TXN: u8 = 9;

/// One logical redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One row inserted into `table`, assigned row id `row`; `datum` is the
    /// executor's record encoding of the key value.
    Insert {
        /// Target table name.
        table: String,
        /// The row id the insert assigned (`rows.len()` at execution).
        row: u64,
        /// Encoded key value (the executor's heap record bytes).
        datum: Vec<u8>,
        /// Enclosing transaction, or [`AUTOCOMMIT`].
        txn: TxnId,
    },
    /// A whole `insert_many` batch as **one** record: rows
    /// `first_row .. first_row + datums.len()` in input order.  Logged as a
    /// unit so recovery reproduces the batch's all-or-nothing visibility.
    InsertMany {
        /// Target table name.
        table: String,
        /// Row id assigned to the first value of the batch.
        first_row: u64,
        /// Encoded key values in input order.
        datums: Vec<Vec<u8>>,
        /// Enclosing transaction, or [`AUTOCOMMIT`].
        txn: TxnId,
    },
    /// Row `row` deleted from `table`.
    Delete {
        /// Target table name.
        table: String,
        /// The deleted row id.
        row: u64,
        /// Enclosing transaction, or [`AUTOCOMMIT`].
        txn: TxnId,
    },
    /// `CREATE TABLE` (key type as the catalog's stable tag).
    CreateTable {
        /// New table name.
        table: String,
        /// Key type tag (0 varchar, 1 point, 2 segment).
        key_type: u8,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Dropped table name.
        table: String,
    },
    /// `CREATE INDEX`; `spec` is the catalog layer's encoding of the index
    /// specification (kind tag plus parameters).
    CreateIndex {
        /// Table the index is built on.
        table: String,
        /// Index name.
        index: String,
        /// Encoded index specification.
        spec: Vec<u8>,
    },
    /// `DROP INDEX`.
    DropIndex {
        /// Table the index belonged to.
        table: String,
        /// Dropped index name.
        index: String,
    },
    /// Transaction `txn` opened.  Written lazily, just before the
    /// transaction's first logged statement, so read-only transactions leave
    /// no trace in the log.
    BeginTxn {
        /// The transaction id.
        txn: TxnId,
    },
    /// Transaction `txn` committed.  This record *is* the commit point: its
    /// batch seal reaching disk makes every statement of the transaction
    /// durable in one step, and recovery applies a transaction's statements
    /// only when its `CommitTxn` survives.
    CommitTxn {
        /// The committed transaction id.
        txn: TxnId,
    },
    /// Transaction `txn` rolled back.  Informational: recovery already drops
    /// any transaction without a surviving `CommitTxn`, but an explicit
    /// abort record lets replay discard the loser's buffered statements as
    /// soon as it is seen.
    AbortTxn {
        /// The aborted transaction id.
        txn: TxnId,
    },
}

impl WalRecord {
    /// The table this record applies to (`None` for transaction-control
    /// records, which span tables).
    pub fn table(&self) -> Option<&str> {
        match self {
            WalRecord::Insert { table, .. }
            | WalRecord::InsertMany { table, .. }
            | WalRecord::Delete { table, .. }
            | WalRecord::CreateTable { table, .. }
            | WalRecord::DropTable { table }
            | WalRecord::CreateIndex { table, .. }
            | WalRecord::DropIndex { table, .. } => Some(table),
            WalRecord::BeginTxn { .. }
            | WalRecord::CommitTxn { .. }
            | WalRecord::AbortTxn { .. } => None,
        }
    }

    /// The transaction a record belongs to: [`AUTOCOMMIT`] for bare DML and
    /// all DDL (DDL is always auto-commit), the carried id otherwise.
    pub fn txn(&self) -> TxnId {
        match self {
            WalRecord::Insert { txn, .. }
            | WalRecord::InsertMany { txn, .. }
            | WalRecord::Delete { txn, .. }
            | WalRecord::BeginTxn { txn }
            | WalRecord::CommitTxn { txn }
            | WalRecord::AbortTxn { txn } => *txn,
            WalRecord::CreateTable { .. }
            | WalRecord::DropTable { .. }
            | WalRecord::CreateIndex { .. }
            | WalRecord::DropIndex { .. } => AUTOCOMMIT,
        }
    }
}

impl Codec for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Insert {
                table,
                row,
                datum,
                txn,
            } => {
                TAG_INSERT.encode(out);
                table.encode(out);
                row.encode(out);
                datum.encode(out);
                txn.encode(out);
            }
            WalRecord::InsertMany {
                table,
                first_row,
                datums,
                txn,
            } => {
                TAG_INSERT_MANY.encode(out);
                table.encode(out);
                first_row.encode(out);
                datums.encode(out);
                txn.encode(out);
            }
            WalRecord::Delete { table, row, txn } => {
                TAG_DELETE.encode(out);
                table.encode(out);
                row.encode(out);
                txn.encode(out);
            }
            WalRecord::CreateTable { table, key_type } => {
                TAG_CREATE_TABLE.encode(out);
                table.encode(out);
                key_type.encode(out);
            }
            WalRecord::DropTable { table } => {
                TAG_DROP_TABLE.encode(out);
                table.encode(out);
            }
            WalRecord::CreateIndex { table, index, spec } => {
                TAG_CREATE_INDEX.encode(out);
                table.encode(out);
                index.encode(out);
                spec.encode(out);
            }
            WalRecord::DropIndex { table, index } => {
                TAG_DROP_INDEX.encode(out);
                table.encode(out);
                index.encode(out);
            }
            WalRecord::BeginTxn { txn } => {
                TAG_BEGIN_TXN.encode(out);
                txn.encode(out);
            }
            WalRecord::CommitTxn { txn } => {
                TAG_COMMIT_TXN.encode(out);
                txn.encode(out);
            }
            WalRecord::AbortTxn { txn } => {
                TAG_ABORT_TXN.encode(out);
                txn.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        Ok(match u8::decode(buf)? {
            TAG_INSERT => WalRecord::Insert {
                table: String::decode(buf)?,
                row: u64::decode(buf)?,
                datum: Vec::decode(buf)?,
                txn: TxnId::decode(buf)?,
            },
            TAG_INSERT_MANY => WalRecord::InsertMany {
                table: String::decode(buf)?,
                first_row: u64::decode(buf)?,
                datums: Vec::decode(buf)?,
                txn: TxnId::decode(buf)?,
            },
            TAG_DELETE => WalRecord::Delete {
                table: String::decode(buf)?,
                row: u64::decode(buf)?,
                txn: TxnId::decode(buf)?,
            },
            TAG_CREATE_TABLE => WalRecord::CreateTable {
                table: String::decode(buf)?,
                key_type: u8::decode(buf)?,
            },
            TAG_DROP_TABLE => WalRecord::DropTable {
                table: String::decode(buf)?,
            },
            TAG_CREATE_INDEX => WalRecord::CreateIndex {
                table: String::decode(buf)?,
                index: String::decode(buf)?,
                spec: Vec::decode(buf)?,
            },
            TAG_DROP_INDEX => WalRecord::DropIndex {
                table: String::decode(buf)?,
                index: String::decode(buf)?,
            },
            TAG_BEGIN_TXN => WalRecord::BeginTxn {
                txn: TxnId::decode(buf)?,
            },
            TAG_COMMIT_TXN => WalRecord::CommitTxn {
                txn: TxnId::decode(buf)?,
            },
            TAG_ABORT_TXN => WalRecord::AbortTxn {
                txn: TxnId::decode(buf)?,
            },
            tag => {
                return Err(StorageError::Decode(format!(
                    "unknown WAL record tag {tag}"
                )))
            }
        })
    }
}

/// An `Insert` or `InsertMany` record encoded row by row straight into
/// its [`Frame`], so a statement's rows are never held as a list of
/// encodings first.  The finished frame is byte for byte the frame of the
/// [`WalRecord::Insert`] / [`WalRecord::InsertMany`] with the same fields.
#[derive(Debug)]
pub struct InsertFrame {
    bytes: Vec<u8>,
    /// `InsertMany` only: where its row count goes, and the bytes held
    /// there for it so far.
    count: Option<(usize, usize)>,
    rows: u64,
    txn: TxnId,
}

impl InsertFrame {
    /// A single-row [`WalRecord::Insert`] of row `row`: push exactly one
    /// datum.
    pub fn one(table: &str, row: u64, txn: TxnId) -> Self {
        Self::start(TAG_INSERT, table, row, None, txn)
    }

    /// A [`WalRecord::InsertMany`] of rows from `first_row` on, expected
    /// to be about `expected` rows long (a size hint: the count field is
    /// sized for it and moved over once if the batch ends another width).
    pub fn many(table: &str, first_row: u64, expected: u64, txn: TxnId) -> Self {
        Self::start(TAG_INSERT_MANY, table, first_row, Some(expected), txn)
    }

    fn start(tag: u8, table: &str, row: u64, expected: Option<u64>, txn: TxnId) -> Self {
        let mut bytes = Frame::begin();
        tag.encode(&mut bytes);
        put_varint(&mut bytes, table.len() as u64);
        bytes.extend_from_slice(table.as_bytes());
        row.encode(&mut bytes);
        let count = expected.map(|rows| {
            let at = bytes.len();
            put_varint(&mut bytes, rows);
            (at, bytes.len() - at)
        });
        InsertFrame {
            bytes,
            count,
            rows: 0,
            txn,
        }
    }

    /// Appends the next row's encoded datum, or refuses it (and the
    /// statement) when the record would outgrow what a frame's length field
    /// describes.
    pub fn push(&mut self, datum: &[u8]) -> StorageResult<()> {
        // Room for the datum's length, the longest row count and the
        // transaction id that `finish` appends.
        if self.bytes.len() + datum.len() + 3 * 10 > MAX_PAYLOAD_BYTES {
            return Err(StorageError::Unsupported(format!(
                "a statement's redo record may hold at most {MAX_PAYLOAD_BYTES} bytes"
            )));
        }
        put_varint(&mut self.bytes, datum.len() as u64);
        self.bytes.extend_from_slice(datum);
        self.rows += 1;
        Ok(())
    }

    /// The finished frame.
    pub fn finish(mut self) -> Frame {
        match self.count {
            Some((at, held)) => {
                let mut count = Vec::new();
                put_varint(&mut count, self.rows);
                self.bytes.splice(at..at + held, count);
            }
            None => debug_assert_eq!(self.rows, 1, "an Insert record holds one row"),
        }
        self.txn.encode(&mut self.bytes);
        Frame::end(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: WalRecord) {
        let bytes = record.to_bytes();
        assert_eq!(WalRecord::from_bytes(&bytes).unwrap(), record);
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(WalRecord::Insert {
            table: "words".into(),
            row: 17,
            datum: vec![0, 3, 0, 0, 0, b'a', b'b', b'c'],
            txn: AUTOCOMMIT,
        });
        roundtrip(WalRecord::InsertMany {
            table: "points".into(),
            first_row: 1_000_000,
            datums: vec![vec![1, 2, 3], vec![], vec![255]],
            txn: 42,
        });
        roundtrip(WalRecord::Delete {
            table: "segments".into(),
            row: 0,
            txn: u64::MAX,
        });
        roundtrip(WalRecord::CreateTable {
            table: "t".into(),
            key_type: 2,
        });
        roundtrip(WalRecord::DropTable { table: "t".into() });
        roundtrip(WalRecord::CreateIndex {
            table: "t".into(),
            index: "t_trie".into(),
            spec: vec![0],
        });
        roundtrip(WalRecord::DropIndex {
            table: "t".into(),
            index: "t_trie".into(),
        });
        roundtrip(WalRecord::BeginTxn { txn: 1 });
        roundtrip(WalRecord::CommitTxn { txn: 7 });
        roundtrip(WalRecord::AbortTxn { txn: u64::MAX });
    }

    #[test]
    fn txn_accessor_covers_every_variant() {
        assert_eq!(WalRecord::BeginTxn { txn: 9 }.txn(), 9);
        assert_eq!(WalRecord::CommitTxn { txn: 9 }.txn(), 9);
        assert_eq!(WalRecord::AbortTxn { txn: 9 }.txn(), 9);
        assert_eq!(
            WalRecord::Delete {
                table: "t".into(),
                row: 3,
                txn: 5,
            }
            .txn(),
            5
        );
        // DDL is always auto-commit.
        assert_eq!(WalRecord::DropTable { table: "t".into() }.txn(), AUTOCOMMIT);
        assert_eq!(
            WalRecord::DropTable { table: "t".into() }.table(),
            Some("t")
        );
        assert_eq!(WalRecord::CommitTxn { txn: 9 }.table(), None);
    }

    /// A record streamed row by row is the frame of the record built whole,
    /// byte for byte: a single-row `Insert`, and an `InsertMany` whose
    /// count ends the width its size hint promised or another (the field
    /// moves once), empty included.
    #[test]
    fn a_streamed_insert_frame_is_the_frame_of_its_record() {
        let datum = |i: usize| vec![i as u8; i % 200];
        let one = WalRecord::Insert {
            table: "words".into(),
            row: 70_000,
            datum: datum(130),
            txn: 9,
        };
        let mut streamed = InsertFrame::one("words", 70_000, 9);
        streamed.push(&datum(130)).unwrap();
        assert_eq!(streamed.finish(), Frame::of(&one));

        for (rows, hint) in [
            (0, 0),
            (5, 5),
            (5, 300),
            (300, 0),
            (20_000, 127),
            (128, 128),
        ] {
            let many = WalRecord::InsertMany {
                table: "t".into(),
                first_row: 12,
                datums: (0..rows).map(datum).collect(),
                txn: AUTOCOMMIT,
            };
            let mut streamed = InsertFrame::many("t", 12, hint, AUTOCOMMIT);
            (0..rows).for_each(|i| streamed.push(&datum(i)).unwrap());
            assert_eq!(
                streamed.finish(),
                Frame::of(&many),
                "{rows} rows, hint {hint}"
            );
        }
    }

    #[test]
    fn unknown_tag_is_a_decode_error() {
        assert!(matches!(
            WalRecord::from_bytes(&[99]),
            Err(StorageError::Decode(_))
        ));
    }
}
