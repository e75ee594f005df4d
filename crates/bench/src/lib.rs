//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 6).
//!
//! The functions in [`experiments`] build the SP-GiST index and its baseline
//! on the same storage substrate, run the paper's query workloads, and return
//! structured rows (sizes, times, page I/O, ratios); [`loc`] recounts
//! Table 7 and holds every crate to its line ceiling.  What the paper
//! presumes of its host DBMS (WAL group commit, checkpoints, the buffer
//! pool, concurrency) is measured by the repo benchmark under `benchmark/`
//! and checked by the workspace's tests, not here.
//! The `experiments` binary declares one [`Report`] per table — each column
//! once — which prints it in the form of the paper's figures and archives
//! it as `BENCH_<experiment>.json`.
//!
//! Dataset sizes default to a laptop/CI-friendly scale (the paper used up to
//! 32 M keys on a 2006-era PostgreSQL installation); pass `--scale` to the
//! binary to grow them.  The *shapes* — who wins, by roughly what factor,
//! where the crossovers are — are the reproduction target, not absolute
//! numbers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod loc;
pub mod report;
pub mod stats;

pub use experiments::*;
pub use report::{num, num_unit, Cell, Report};
