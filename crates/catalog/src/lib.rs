//! The PostgreSQL-style extensibility surface of the paper's Section 4.
//!
//! Realizing SP-GiST inside PostgreSQL required three pieces of catalog
//! machinery, all mirrored here:
//!
//! * [`am::AccessMethod`] — the `pg_am` row describing an access method and
//!   its interface routines (paper Table 2),
//! * [`operator::Operator`] / [`operator::OperatorClass`] — the operators
//!   (`=`, `#=`, `?=`, `@`, `^`, `@=`, `@@`) and the operator classes that
//!   link them, together with their support functions, to an access method
//!   (paper Tables 4 and 5),
//! * [`cost::CostEstimate`] and [`Planner`] — the `spgistcostestimate`
//!   analog: selectivity estimation per operator (`eqsel`, `contsel`,
//!   `likesel`) and an index-vs-sequential-scan choice based on estimated
//!   page reads, composed over boolean predicate trees into one
//!   [`AccessPath`] tree,
//! * [`Database`] / [`Table`] — the executable query layer on top of the
//!   planner: heap storage plus physical indexes behind one
//!   `query(predicate)` entry point that plans, dispatches to the chosen
//!   index (or falls back to a sequential scan) and streams results through
//!   an [`ExecCursor`].
//!
//! # The executable layer: nine modules, one direction
//!
//! Everything above the catalog rows is split into nine modules, each with
//! one job, whose `use crate::` arrows only ever point left:
//!
//! ```text
//! value ← query ← planner ← physical ← table ← database ← { checkpoint, recovery, txn }
//! ```
//!
//! | module | job |
//! |---|---|
//! | `value` | [`Datum`] / [`KeyType`]: the typed key column and its byte encodings |
//! | `query` | [`Predicate`] / [`Query`]: the logical query |
//! | `planner` | [`Planner`]: one query in, one [`AccessPath`] tree out — the plan `EXPLAIN` shows and the executor runs |
//! | `physical` | the index seam ([`IndexSpec`], one class table, one object-safe index trait) and plan execution ([`ExecCursor`], [`ScanSource`]) |
//! | `table` | [`Table`]: heap + row directory + indexes, and the two DML primitives every row mutation goes through |
//! | `database` | [`Database`]: the facade, constructors and DDL |
//! | `checkpoint` | `Database::checkpoint`: the crash-atomic incremental checkpoint protocol |
//! | `recovery` | `Database::open_with_pager`: journal rollback, catalog read, WAL replay |
//! | `txn` | [`Transaction`]: multi-statement transactions and their undo chain |
//!
//! (They sit on top of the catalog leaves `cost ← operator ← am` and
//! [`durable`].)  The order is enforced by a test, so recovery and
//! checkpointing can be read — and changed — without the planner in the
//! file.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod am;
mod checkpoint;
pub mod cost;
mod database;
pub mod durable;
pub mod operator;
mod physical;
pub mod planner;
mod query;
mod recovery;
mod table;
mod txn;
mod value;

pub use am::{AccessMethod, Catalog};
pub use cost::{CostEstimate, Selectivity, TableStats};
pub use database::Database;
pub use operator::{Operator, OperatorClass, Strategy, SupportFunction};
pub use physical::{ExecCursor, IndexSpec, ScanSource};
pub use planner::{AccessPath, AvailableIndex, Planner};
pub use query::{Predicate, Query};
pub use spgist_wal::{TxnId, Wal, WalConfig};
pub use table::Table;
pub use txn::Transaction;
pub use value::{Datum, KeyType};
