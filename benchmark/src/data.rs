//! The dataset (three tables generated by `spgist-datagen` from the seed)
//! and the benchmark's own model of which rows are live — the ground truth
//! the oracle and the post-crash verification compare the engine against.

use spgist_catalog::{Datum, IndexSpec, KeyType};
use spgist_core::RowId;
use spgist_datagen::rng::DetRng;

use crate::config::Scale;

/// Table ids, in round-robin order.
pub const WORDS: usize = 0;
/// See [`WORDS`].
pub const POINTS: usize = 1;
/// See [`WORDS`].
pub const SEGMENTS: usize = 2;

/// Longest generated segment, world units (the world is `[0, 100]²`).
pub const SEGMENT_MAX_LEN: f64 = 2.0;

/// Static description of one table.
pub struct TableDef {
    /// Table name.
    pub name: &'static str,
    /// Key type.
    pub key_type: KeyType,
    /// `(index name, layer-metric suffix)` of the indexes built on it.
    pub indexes: &'static [(&'static str, &'static str)],
}

/// The three tables and their five indexes.
pub const TABLES: [TableDef; 3] = [
    TableDef {
        name: "words",
        key_type: KeyType::Varchar,
        indexes: &[("words_trie", "trie"), ("words_suffix", "suffix")],
    },
    TableDef {
        name: "points",
        key_type: KeyType::Point,
        indexes: &[("points_kd", "kdtree"), ("points_pquad", "pquadtree")],
    },
    TableDef {
        name: "segments",
        key_type: KeyType::Segment,
        indexes: &[("segments_pmr", "pmr")],
    },
];

/// The five index classes, in the order the per-layer metrics list them.
pub const INDEX_CLASSES: [&str; 5] = ["trie", "kdtree", "pquadtree", "pmr", "suffix"];

/// The [`IndexSpec`] behind a layer-metric suffix of [`TABLES`].
pub fn index_spec(class: &str) -> IndexSpec {
    match class {
        "trie" => IndexSpec::Trie,
        "suffix" => IndexSpec::SuffixTree,
        "kdtree" => IndexSpec::KdTree,
        "pquadtree" => IndexSpec::PointQuadtree,
        "pmr" => IndexSpec::PmrQuadtree {
            world: spgist_datagen::world(),
        },
        other => unreachable!("unknown index class {other}"),
    }
}

/// Bytes of user data in one value: the text of a word, two `f64`s of a
/// point, four of a segment.  The denominators of `write_amp` and
/// `space_amp` are sums of this.
pub fn user_bytes(datum: &Datum) -> u64 {
    match datum {
        Datum::Text(s) => s.len() as u64,
        Datum::Point(_) => 16,
        Datum::Segment(_) => 32,
    }
}

fn sub_seed(seed: u64, table: usize) -> u64 {
    // Distinct, fixed streams per table; SplitMix64 decorrelates them.
    DetRng::seed_from_u64(seed ^ (0xD1B5_4A32_D192_ED03u64.wrapping_mul(table as u64 + 1)))
        .next_u64()
}

/// `n` fresh values for `table`, drawn from the same distributions as the
/// initial load.
pub fn generate(table: usize, n: usize, seed: u64) -> Vec<Datum> {
    match table {
        WORDS => spgist_datagen::words(n, seed)
            .into_iter()
            .map(Datum::Text)
            .collect(),
        POINTS => spgist_datagen::points(n, seed)
            .into_iter()
            .map(Datum::Point)
            .collect(),
        SEGMENTS => spgist_datagen::segments(n, SEGMENT_MAX_LEN, seed)
            .into_iter()
            .map(Datum::Segment)
            .collect(),
        other => unreachable!("unknown table {other}"),
    }
}

/// The initial contents of the three tables.
pub struct Dataset {
    /// Row `r` of table `t` is `rows[t][r]`.
    pub rows: [Vec<Datum>; 3],
}

impl Dataset {
    /// Generates the dataset of `scale` from `seed`.
    pub fn generate(seed: u64, scale: &Scale) -> Self {
        let sizes = [scale.words, scale.points, scale.segments];
        Dataset {
            rows: std::array::from_fn(|t| generate(t, sizes[t], sub_seed(seed, t))),
        }
    }

    /// Bytes of user data in the initial load.
    pub fn user_bytes(&self) -> u64 {
        self.rows.iter().flatten().map(user_bytes).sum()
    }
}

/// What the benchmark knows to be true of one table.
#[derive(Debug, Clone, Default)]
pub struct TableModel {
    /// `rows[r]` is the value of row id `r`, `None` once deleted.
    pub rows: Vec<Option<Datum>>,
    /// No row id below this is live (the delete cursor: deletes take the
    /// oldest live row).
    oldest: usize,
    /// Live rows.
    pub live: u64,
    /// Bytes of user data in live rows.
    pub live_bytes: u64,
}

impl TableModel {
    /// Row id the next insert must be assigned (ids are dense).
    pub fn next_row(&self) -> RowId {
        self.rows.len() as RowId
    }

    /// The oldest live row, if any.
    pub fn oldest_live(&mut self) -> Option<RowId> {
        while self.oldest < self.rows.len() && self.rows[self.oldest].is_none() {
            self.oldest += 1;
        }
        (self.oldest < self.rows.len()).then_some(self.oldest as RowId)
    }

    /// Records an acknowledged insert.
    pub fn insert(&mut self, datum: Datum) {
        self.live += 1;
        self.live_bytes += user_bytes(&datum);
        self.rows.push(Some(datum));
    }

    /// Records an acknowledged delete.
    pub fn delete(&mut self, row: RowId) {
        if let Some(datum) = self.rows[row as usize].take() {
            self.live -= 1;
            self.live_bytes -= user_bytes(&datum);
        }
    }

    /// Live `(row, value)` pairs.
    pub fn live_rows(&self) -> impl Iterator<Item = (RowId, &Datum)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(row, datum)| datum.as_ref().map(|d| (row as RowId, d)))
    }
}

/// The model of the whole database.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// One model per table of [`TABLES`].
    pub tables: [TableModel; 3],
    /// Bytes of user data ever ingested (initial load + run inserts).
    pub ingested_bytes: u64,
}

impl Model {
    /// The model right after the initial load.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let mut model = Model::default();
        for (t, rows) in dataset.rows.iter().enumerate() {
            for datum in rows {
                model.insert(t, datum.clone());
            }
        }
        model
    }

    /// Records an acknowledged insert into `table`.
    pub fn insert(&mut self, table: usize, datum: Datum) {
        self.ingested_bytes += user_bytes(&datum);
        self.tables[table].insert(datum);
    }

    /// Bytes of user data in live rows, all tables.
    pub fn live_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.live_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_a_function_of_the_seed() {
        let a = Dataset::generate(7, &Scale::QUICK);
        let b = Dataset::generate(7, &Scale::QUICK);
        let c = Dataset::generate(8, &Scale::QUICK);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows[WORDS], c.rows[WORDS]);
        assert_eq!(a.rows.iter().map(Vec::len).sum::<usize>(), 10_000);
        assert_eq!(
            a.user_bytes(),
            a.rows[WORDS].iter().map(user_bytes).sum::<u64>() + 4_000 * 16 + 2_000 * 32
        );
    }

    #[test]
    fn model_tracks_live_rows_and_deletes_oldest_first() {
        let mut model = Model::default();
        for w in ["a", "bb", "ccc"] {
            model.insert(WORDS, Datum::Text(w.into()));
        }
        let t = &mut model.tables[WORDS];
        assert_eq!((t.live, t.live_bytes, t.next_row()), (3, 6, 3));
        assert_eq!(t.oldest_live(), Some(0));
        t.delete(0);
        t.delete(0); // deleting twice changes nothing
        assert_eq!((t.live, t.live_bytes), (2, 5));
        assert_eq!(t.oldest_live(), Some(1));
        assert_eq!(t.live_rows().map(|(r, _)| r).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(model.ingested_bytes, 6);
        assert_eq!(model.live_bytes(), 5);
    }
}
