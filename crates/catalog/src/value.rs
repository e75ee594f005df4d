//! The value model: the typed key column of a table.
//!
//! Every table has exactly one key column of one [`KeyType`]; a [`Datum`] is
//! one value of that column.  Both carry stable byte encodings — the key
//! type's tag in the durable catalog and `CREATE TABLE` redo records, the
//! datum's record form in heap pages and `INSERT` redo records.

use spgist_indexes::geom::{Point, Segment};
use spgist_storage::{Codec, StorageError, StorageResult};

/// Key type of a table column (the `key_type` the catalog's operator
/// classes are defined over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyType {
    /// String keys (`VARCHAR`): trie, suffix tree, B⁺-tree classes.
    Varchar,
    /// 2-D point keys (`POINT`): kd-tree, point quadtree, R-tree classes.
    Point,
    /// Line-segment keys (`SEGMENT`): the PMR-quadtree class.
    Segment,
}

impl KeyType {
    /// Catalog spelling of the type name.
    pub fn name(&self) -> &'static str {
        match self {
            KeyType::Varchar => "VARCHAR",
            KeyType::Point => "POINT",
            KeyType::Segment => "SEGMENT",
        }
    }

    /// Stable on-disk tag (durable catalog).
    pub(crate) fn tag(&self) -> u8 {
        match self {
            KeyType::Varchar => 0,
            KeyType::Point => 1,
            KeyType::Segment => 2,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> StorageResult<Self> {
        match tag {
            0 => Ok(KeyType::Varchar),
            1 => Ok(KeyType::Point),
            2 => Ok(KeyType::Segment),
            t => Err(StorageError::Corrupt(format!("invalid key-type tag {t}"))),
        }
    }
}

/// A typed value stored in a table's key column.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// A string.
    Text(String),
    /// A 2-D point.
    Point(Point),
    /// A line segment.
    Segment(Segment),
}

impl Datum {
    /// The key type this value belongs to.
    pub fn key_type(&self) -> KeyType {
        match self {
            Datum::Text(_) => KeyType::Varchar,
            Datum::Point(_) => KeyType::Point,
            Datum::Segment(_) => KeyType::Segment,
        }
    }

    pub(crate) fn encode_record(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_record_into(&mut out);
        out
    }

    /// Appends the record form to `out` (a buffer reused row after row).
    pub(crate) fn encode_record_into(&self, out: &mut Vec<u8>) {
        match self {
            Datum::Text(s) => {
                0u8.encode(out);
                s.encode(out);
            }
            Datum::Point(p) => {
                1u8.encode(out);
                p.encode(out);
            }
            Datum::Segment(s) => {
                2u8.encode(out);
                s.encode(out);
            }
        }
    }

    pub(crate) fn decode_record(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        match u8::decode(&mut buf)? {
            0 => Ok(Datum::Text(String::decode(&mut buf)?)),
            1 => Ok(Datum::Point(Point::decode(&mut buf)?)),
            2 => Ok(Datum::Segment(Segment::decode(&mut buf)?)),
            tag => Err(StorageError::Decode(format!("invalid datum tag {tag}"))),
        }
    }
}

impl From<&str> for Datum {
    fn from(s: &str) -> Self {
        Datum::Text(s.to_string())
    }
}

impl From<String> for Datum {
    fn from(s: String) -> Self {
        Datum::Text(s)
    }
}

impl From<Point> for Datum {
    fn from(p: Point) -> Self {
        Datum::Point(p)
    }
}

impl From<Segment> for Datum {
    fn from(s: Segment) -> Self {
        Datum::Segment(s)
    }
}
